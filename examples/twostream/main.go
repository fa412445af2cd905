// Two-stream end-to-end: the complete DL-PIC pipeline of the paper at a
// small scale — generate a training corpus with traditional PIC runs,
// train the MLP electric-field solver, then run the DL-based PIC method
// on beam parameters the network never saw and compare it against the
// traditional method and linear theory (paper Figs. 4 and 5).
//
//	go run ./examples/twostream
//
// Takes about a second on two CPU cores.
package main

import (
	"fmt"
	"log"
	"os"

	"dlpic/internal/core"
	"dlpic/internal/dataset"
	"dlpic/internal/diag"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
)

func main() {
	// Base configuration: the paper's box at a reduced particle count.
	cfg := pic.Default()
	cfg.ParticlesPerCell = 150

	// Phase-space binning: 64 x 64 NGP histogram, as in the paper.
	spec := phasespace.DefaultSpec(cfg.Length)

	// 1. Corpus: a small sweep that leaves v0 = 0.2 / vth = 0.025 unseen.
	corpus := dataset.GenerateOpts{
		Base: cfg,
		V0s:  []float64{0.15, 0.18, 0.3}, Vths: []float64{0.0, 0.005},
		Repeats: 1, Steps: 200, SampleEvery: 2,
		Spec: spec, Seed: 1,
	}
	fmt.Fprintln(os.Stderr, "generating corpus (6 traditional PIC runs)...")
	ds, err := dataset.Generate(corpus)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Normalize(); err != nil {
		log.Fatal(err)
	}
	ds.Shuffle(2)
	train, val, _, err := ds.Split(ds.N()-40, 40, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train the MLP field solver (scaled-width version of the paper's
	// 3x1024 network) and wrap it with the binning and normalisation it
	// was trained under.
	fmt.Fprintln(os.Stderr, "training the MLP electric-field solver...")
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: ds.Cells, Hidden: 96, HiddenLayers: 3}, rng.New(3))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nn.Fit(net, train.Inputs, train.Targets, val.Inputs, val.Targets,
		nn.TrainConfig{Epochs: 25, BatchSize: 64, Optimizer: nn.NewAdam(1e-3), Loss: nn.MSE{}, Seed: 4}); err != nil {
		log.Fatal(err)
	}
	solver, err := core.NewNNSolver(net, spec, ds.Norm, ds.Cells)
	if err != nil {
		log.Fatal(err)
	}
	m := nn.Evaluate(net, val.Inputs, val.Targets, 64)
	fmt.Printf("field-solver validation: MAE %.4g, max error %.4g\n\n", m.MAE, m.MaxErr)

	// 3. Validation runs at unseen parameters (the paper's §V setup).
	runCfg := cfg
	runCfg.V0 = 0.2
	runCfg.Vth = 0.025
	runCfg.Seed = 42

	runOne := func(name string, method pic.FieldMethod) *diag.Recorder {
		sim, err := pic.New(runCfg, method)
		if err != nil {
			log.Fatal(err)
		}
		var rec diag.Recorder
		if err := sim.Run(200, &rec, nil); err != nil {
			log.Fatal(err)
		}
		if err := sim.CheckFinite(); err != nil {
			log.Fatal(err)
		}
		if fit, err := sweep.MeasureGrowthRate(&rec); err == nil {
			fmt.Printf("%-16s growth rate %.4f (R2 %.3f)\n", name, fit.Gamma, fit.R2)
		} else {
			fmt.Printf("%-16s growth fit: %v\n", name, err)
		}
		return &rec
	}
	recT := runOne("traditional:", nil) // nil field method: deposit + Poisson
	recD := runOne("DL-based (MLP):", solver)

	cold := runCfg
	cold.Vth = 0
	fmt.Printf("%-16s growth rate %.4f\n\n", "linear theory:", sweep.TheoreticalGrowthRate(cold))

	// 4. Conservation comparison (paper Fig. 5).
	report := func(name string, rec *diag.Recorder) {
		tot, _ := rec.Series("total")
		mom, _ := rec.Series("momentum")
		fmt.Printf("%-16s energy variation %.2f%%, momentum drift %+.4g\n",
			name, 100*diag.MaxRelativeVariation(tot), diag.Drift(mom))
	}
	report("traditional:", recT)
	report("DL-based (MLP):", recD)
}
