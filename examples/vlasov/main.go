// Vlasov training data (paper §VII): "more accurate training data sets
// can be obtained by running Vlasov codes that are not affected by the
// PIC numerical noise." This example runs the 1D1V semi-Lagrangian
// Vlasov-Poisson solver on the two-stream problem, shows its noise-free
// growth curve against linear theory, and trains the same MLP field
// solver once on a PIC corpus and once on a Vlasov corpus to compare
// the resulting field errors on a common (PIC) test set.
//
//	go run ./examples/vlasov
//
// Takes a couple of seconds on two CPU cores.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"dlpic/internal/ascii"
	"dlpic/internal/dataset"
	"dlpic/internal/diag"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/theory"
	"dlpic/internal/vlasov"
)

func main() {
	// 1. A single Vlasov run: razor-clean exponential growth.
	vcfg := vlasov.Default()
	init := vlasov.TwoStreamInit{V0: 0.2, Vth: 0.03, Amp: 1e-4, Mode: 1}
	solver, err := vlasov.New(vcfg, init)
	if err != nil {
		log.Fatal(err)
	}
	var rec diag.Recorder
	if err := solver.Run(300, &rec); err != nil { // t = 30
		log.Fatal(err)
	}
	amps, _ := rec.Series("mode")
	times := rec.Times()
	fmt.Print(ascii.LineChart([]ascii.Series{{Name: "E1 (Vlasov)", X: times, Y: amps}},
		70, 14, "Vlasov two-stream: mode-1 amplitude (log scale)", true))

	t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.001, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fit, err := diag.FitGrowthRate(times, amps, t0, t1)
	if err != nil {
		log.Fatal(err)
	}
	ts := theory.TwoStream{Wp: vcfg.Wp, V0: init.V0, Vth: init.Vth}
	k1 := 2 * math.Pi / vcfg.Length
	fmt.Printf("\nmeasured gamma %.4f vs warm theory %.4f (R2 = %.5f — no particle noise)\n\n",
		fit.Gamma, ts.GrowthRateWarm(k1), fit.R2)

	// 2. Corpus quality comparison: PIC-generated vs Vlasov-generated
	// training data for the same MLP, evaluated on a PIC test set.
	cfg := pic.Default()
	cfg.Cells = 64
	cfg.ParticlesPerCell = 125 // 8000 particles: matches the Vlasov Np
	spec := phasespace.DefaultSpec(cfg.Length)
	np := cfg.NumParticles()

	fmt.Fprintln(os.Stderr, "generating PIC corpus...")
	picDS, err := dataset.Generate(dataset.GenerateOpts{
		Base: cfg, V0s: []float64{0.15, 0.18}, Vths: []float64{0.03},
		Repeats: 2, Steps: 150, SampleEvery: 2, Spec: spec, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Fprintln(os.Stderr, "generating Vlasov corpus...")
	vbase := vcfg
	vbase.Dt = 0.2 // match the PIC sampling cadence
	vlasovDS, err := dataset.GenerateVlasov(dataset.VlasovGenerateOpts{
		Base: vbase, V0s: []float64{0.15, 0.18}, Vths: []float64{0.03},
		Amps: []float64{1e-4, 1e-3}, Steps: 150, SampleEvery: 2,
		Np: np, Spec: spec,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Fprintln(os.Stderr, "generating PIC test set (unseen v0 = 0.2)...")
	testDS, err := dataset.Generate(dataset.GenerateOpts{
		Base: cfg, V0s: []float64{0.2}, Vths: []float64{0.03},
		Repeats: 1, Steps: 100, SampleEvery: 2, Spec: spec, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}

	trainAndEval := func(name string, ds *dataset.Dataset) {
		if err := ds.Normalize(); err != nil {
			log.Fatal(err)
		}
		test := cloneDataset(testDS)
		if err := test.NormalizeWith(ds.Norm); err != nil {
			log.Fatal(err)
		}
		ds.Shuffle(3)
		fmt.Fprintf(os.Stderr, "training MLP on the %s corpus (%d samples)...\n", name, ds.N())
		net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: ds.Cells, Hidden: 96, HiddenLayers: 3}, rng.New(4))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := nn.Fit(net, ds.Inputs, ds.Targets, nil, nil,
			nn.TrainConfig{Epochs: 25, BatchSize: 64, Optimizer: nn.NewAdam(1e-3), Loss: nn.MSE{}, Seed: 5}); err != nil {
			log.Fatal(err)
		}
		m := nn.Evaluate(net, test.Inputs, test.Targets, 64)
		fmt.Printf("%-16s corpus -> PIC test set: MAE %.4g, max error %.4g\n", name, m.MAE, m.MaxErr)
	}
	trainAndEval("PIC", picDS)
	trainAndEval("Vlasov", vlasovDS)
	fmt.Println("\n(the Vlasov corpus has no particle noise in either inputs or targets;")
	fmt.Println(" whether that helps on *noisy* PIC test data is exactly the open question")
	fmt.Println(" the paper's discussion raises)")
}

// cloneDataset deep-copies a dataset so each normalization is independent.
func cloneDataset(d *dataset.Dataset) *dataset.Dataset {
	return &dataset.Dataset{
		Spec: d.Spec, Cells: d.Cells,
		Inputs:  d.Inputs.Clone(),
		Targets: d.Targets.Clone(),
	}
}
