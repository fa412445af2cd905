package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"dlpic/internal/dataset"
	"dlpic/internal/diag"
	"dlpic/internal/interp"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/theory"
)

// fastCfg mirrors the pic package's fast test configuration.
func fastCfg() pic.Config {
	cfg := pic.Default()
	cfg.ParticlesPerCell = 50
	cfg.Vth = 0
	cfg.QuietStart = true
	cfg.PerturbAmp = 1e-4 * cfg.Length
	cfg.PerturbMode = 1
	return cfg
}

func oracleSpec(cfg pic.Config) phasespace.GridSpec {
	return phasespace.GridSpec{
		NX: cfg.Cells, NV: 64, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP,
	}
}

func TestNewOracleSolverValidation(t *testing.T) {
	cfg := fastCfg()
	spec := oracleSpec(cfg)
	if _, err := NewOracleSolver(cfg, spec); err != nil {
		t.Fatalf("valid oracle rejected: %v", err)
	}
	bad := spec
	bad.NX = cfg.Cells + 1
	if _, err := NewOracleSolver(cfg, bad); err == nil {
		t.Error("NX mismatch should fail")
	}
	bad = spec
	bad.L = 999
	if _, err := NewOracleSolver(cfg, bad); err == nil {
		t.Error("box mismatch should fail")
	}
}

// The core integration test of the paper's new cycle: running the PIC
// loop with the phase-space-binning field stage (oracle variant)
// reproduces the two-stream growth rate. This isolates the Fig. 2 cycle
// from network training quality.
func TestDLCycleWithOracleReproducesGrowthRate(t *testing.T) {
	cfg := fastCfg()
	oracle, err := NewOracleSolver(cfg, oracleSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pic.New(cfg, oracle)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(150, &rec, nil); err != nil {
		t.Fatal(err)
	}
	amps, _ := rec.Series("mode")
	times := rec.Times()
	t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.01, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := diag.FitGrowthRate(times, amps, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	want := theory.TwoStream{Wp: cfg.Wp, V0: cfg.V0}.GrowthRate(2 * math.Pi / cfg.Length)
	if math.Abs(fit.Gamma-want)/want > 0.15 {
		t.Fatalf("oracle DL-cycle growth %v, theory %v (%.1f%% off)",
			fit.Gamma, want, 100*math.Abs(fit.Gamma-want)/want)
	}
}

// NGP binning at one bin per cell loses sub-cell position information;
// the oracle run therefore has slightly different noise properties but
// must conserve energy comparably to the traditional method.
func TestDLCycleOracleEnergyBounded(t *testing.T) {
	cfg := fastCfg()
	oracle, err := NewOracleSolver(cfg, oracleSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pic.New(cfg, oracle)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(200, &rec, nil); err != nil {
		t.Fatal(err)
	}
	tot, _ := rec.Series("total")
	if v := diag.MaxRelativeVariation(tot); v > 0.08 {
		t.Fatalf("oracle cycle energy variation %.2f%%", 100*v)
	}
	if err := sim.CheckFinite(); err != nil {
		t.Fatal(err)
	}
}

// trainTinySolver trains a small MLP on a tiny corpus and returns the
// solver plus its validation metrics.
func trainTinySolver(t *testing.T, cfg pic.Config, spec phasespace.GridSpec) (*NNSolver, nn.Metrics) {
	t.Helper()
	gen := dataset.GenerateOpts{
		Base: cfg,
		V0s:  []float64{0.15, 0.2, 0.25}, Vths: []float64{0.0, 0.01},
		Repeats: 1, Steps: 60, SampleEvery: 1,
		Spec: spec, Seed: 11,
	}
	ds, err := dataset.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Normalize(); err != nil {
		t.Fatal(err)
	}
	ds.Shuffle(1)
	nVal := ds.N() / 10
	train, val, _, err := ds.Split(ds.N()-nVal, nVal, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewMLP(nn.MLPConfig{
		InDim: spec.Size(), OutDim: cfg.Cells, Hidden: 64, HiddenLayers: 2,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	_, err = nn.Fit(net, train.Inputs, train.Targets, val.Inputs, val.Targets, nn.TrainConfig{
		Epochs: 40, BatchSize: 32, Optimizer: nn.NewAdam(1e-3), Loss: nn.MSE{}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewNNSolver(net, spec, ds.Norm, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	return solver, nn.Evaluate(net, val.Inputs, val.Targets, 32)
}

// End-to-end: a small trained MLP drives the PIC loop stably and the
// instability develops. This is the scaled version of the paper's Fig. 4
// validation; the full-scale version lives in cmd/experiments.
func TestDLCycleWithTrainedMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	cfg := fastCfg()
	cfg.Cells = 32
	cfg.ParticlesPerCell = 40
	cfg.Vth = 0.01
	cfg.QuietStart = false
	cfg.PerturbAmp = 1e-3 * cfg.Length
	spec := phasespace.GridSpec{NX: 32, NV: 32, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	solver, metrics := trainTinySolver(t, cfg, spec)
	// The learned field solve must beat the trivial zero predictor by a
	// wide margin: MAE well below the field scale (~0.1 paper, smaller
	// here early in runs).
	if metrics.MAE > 0.02 {
		t.Fatalf("trained solver MAE %v too high to drive the loop", metrics.MAE)
	}
	simCfg := cfg
	simCfg.V0 = 0.2
	simCfg.Vth = 0.01
	simCfg.Seed = 999
	sim, err := pic.New(simCfg, solver)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(120, &rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if solver.Predictions < 120 {
		t.Fatalf("solver invoked %d times, want >= 120", solver.Predictions)
	}
	// The instability must develop: mode 1 grows by at least 10x over
	// its starting amplitude.
	amps, _ := rec.Series("mode")
	peak := 0.0
	for _, a := range amps {
		if a > peak {
			peak = a
		}
	}
	if peak < 10*amps[0] || peak < 1e-3 {
		t.Fatalf("no instability under trained solver: start %v peak %v", amps[0], peak)
	}
}

// The CNN architecture drives the PIC loop through the same solver
// plumbing as the MLP.
func TestDLCycleWithCNNSolver(t *testing.T) {
	cfg := fastCfg()
	cfg.Cells = 32
	cfg.ParticlesPerCell = 10
	spec := phasespace.GridSpec{NX: 32, NV: 32, L: cfg.Length, VMin: -0.8, VMax: 0.8}
	net, err := nn.NewCNN(nn.CNNConfig{
		H: spec.NV, W: spec.NX, OutDim: cfg.Cells,
		Channels1: 2, Channels2: 2, Kernel: 3, Hidden: 16, HiddenLayers: 1,
	}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 50}, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained CNN: scale its output layer down so the predicted
	// fields stay physical.
	params := net.Params()
	for _, p := range params[len(params)-2:] {
		p.W.Scale(0.01)
	}
	sim, err := pic.New(cfg, solver)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if solver.Predictions < 20 {
		t.Fatalf("CNN solver invoked %d times", solver.Predictions)
	}
	if got := solver.Name(); got != "dl-cnn" {
		t.Fatalf("CNN solver named %q, want dl-cnn", got)
	}
}

// Name follows the network: the per-call MLP and its batched method
// (a WithPredict copy) are "dl-mlp".
func TestNNSolverNameFollowsNetwork(t *testing.T) {
	cfg := fastCfg()
	cfg.Cells = 16
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: 16, Hidden: 4, HiddenLayers: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewNNSolver(net, spec, phasespace.Normalizer{Max: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := solver.WithPredict(16, func(in, out []float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*NNSolver{solver, hooked} {
		if got := s.Name(); got != "dl-mlp" {
			t.Errorf("MLP solver named %q, want dl-mlp", got)
		}
	}
}

func TestNNSolverValidation(t *testing.T) {
	cfg := fastCfg()
	spec := oracleSpec(cfg)
	r := rng.New(1)
	if _, err := NewNNSolver(nil, spec, phasespace.Normalizer{Max: 1}, cfg.Cells); err == nil {
		t.Error("nil network should fail")
	}
	wrongIn, _ := nn.NewMLP(nn.MLPConfig{InDim: 10, OutDim: cfg.Cells, Hidden: 4, HiddenLayers: 1}, r)
	if _, err := NewNNSolver(wrongIn, spec, phasespace.Normalizer{Max: 1}, cfg.Cells); err == nil {
		t.Error("input mismatch should fail")
	}
	wrongOut, _ := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: 7, Hidden: 4, HiddenLayers: 1}, r)
	if _, err := NewNNSolver(wrongOut, spec, phasespace.Normalizer{Max: 1}, cfg.Cells); err == nil {
		t.Error("output mismatch should fail")
	}
}

func TestModelBundleRoundTrip(t *testing.T) {
	cfg := fastCfg()
	cfg.Cells = 16
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	r := rng.New(5)
	net, _ := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: 16, Hidden: 8, HiddenLayers: 1}, r)
	solver, err := NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 42}, 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(solver, 16, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Norm != solver.Norm {
		t.Fatal("normalizer lost in bundle")
	}
	if loaded.Spec != solver.Spec {
		t.Fatal("spec lost in bundle")
	}
	// Same particles through both solvers' whole pipeline: the bundle
	// must carry the weights, the binning and the normalizer.
	sim, err := pic.New(cfg, solver)
	if err != nil {
		t.Fatal(err)
	}
	e1 := make([]float64, 16)
	e2 := make([]float64, 16)
	if err := solver.ComputeField(sim, e1); err != nil {
		t.Fatal(err)
	}
	if err := loaded.ComputeField(sim, e2); err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("bundle prediction differs at %d", i)
		}
	}
}

func TestModelBundleFile(t *testing.T) {
	cfg := fastCfg()
	cfg.Cells = 16
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	net, _ := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: 16, Hidden: 4, HiddenLayers: 1}, rng.New(6))
	solver, err := NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.dlpic"
	if err := SaveModelFile(solver, 16, path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path + ".missing"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLoadModelGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage bundle should fail")
	}
}

// A bundle trained on another box must be refused when it meets the
// simulation, not bin every particle of the longer box into the last
// histogram column.
func TestNNSolverRejectsOtherBoxLength(t *testing.T) {
	cfg := fastCfg()
	cfg.Cells = 16
	cfg.ParticlesPerCell = 4
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: cfg.Length / 2, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: 16, Hidden: 8, HiddenLayers: 1}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pic.New(cfg, solver)
	if err == nil {
		t.Fatal("solver binned over half the box was accepted")
	}
	for _, l := range []float64{spec.L, cfg.Length} {
		if !strings.Contains(err.Error(), fmt.Sprint(l)) {
			t.Errorf("error %q does not name box length %v", err, l)
		}
	}
	if solver.Predictions != 0 {
		t.Errorf("solver predicted %d times before refusing", solver.Predictions)
	}
}
