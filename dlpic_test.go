package dlpic

import (
	"math"
	"testing"

	"dlpic/internal/diag"
	"dlpic/internal/pic"
)

func TestTraditionalGrowthThroughFacade(t *testing.T) {
	cfg := pic.Default()
	cfg.Cells = 32
	cfg.ParticlesPerCell = 30
	cfg.Vth = 0
	cfg.QuietStart = true
	cfg.PerturbAmp = 1e-4 * cfg.Length
	cfg.PerturbMode = 1
	sim, err := pic.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(150, &rec, nil); err != nil {
		t.Fatal(err)
	}
	fit, err := MeasureGrowthRate(&rec)
	if err != nil {
		t.Fatal(err)
	}
	want := TheoreticalGrowthRate(cfg)
	// Note: TheoreticalGrowthRate includes vth = 0 here, so this is the
	// clean cold rate.
	if math.Abs(fit.Gamma-want)/want > 0.15 {
		t.Fatalf("facade growth %v vs theory %v", fit.Gamma, want)
	}
}

func TestTheoreticalGrowthRatePaperValue(t *testing.T) {
	cfg := pic.Default()
	cfg.Vth = 0
	got := TheoreticalGrowthRate(cfg)
	want := 1 / math.Sqrt(8) // K = 0.612 ~ sqrt(3/8): near-maximal growth
	if math.Abs(got-want) > 2e-4 {
		t.Fatalf("gamma = %v, want ~%v", got, want)
	}
}
