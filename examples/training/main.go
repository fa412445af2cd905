// Architecture comparison (paper Table I, miniature): train the MLP, the
// CNN and the ResMLP extension on the same small corpus and compare
// their MAE / max-error metrics on a held-out test split and on a second
// test set from unseen beam parameters.
//
//	go run ./examples/training
//
// Takes a few seconds on two CPU cores (the CNN dominates).
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"dlpic/internal/ascii"
	"dlpic/internal/dataset"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
)

func main() {
	cfg := pic.Default()
	cfg.ParticlesPerCell = 100
	spec := phasespace.DefaultSpec(cfg.Length)

	fmt.Fprintln(os.Stderr, "generating corpora...")
	ds, err := dataset.Generate(dataset.GenerateOpts{
		Base: cfg,
		V0s:  []float64{0.15, 0.18, 0.3}, Vths: []float64{0.0, 0.005},
		Repeats: 1, Steps: 150, SampleEvery: 2,
		Spec: spec, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Normalize(); err != nil {
		log.Fatal(err)
	}
	ds.Shuffle(2)
	train, val, testI, err := ds.Split(ds.N()-60, 30, 30)
	if err != nil {
		log.Fatal(err)
	}

	// Test set II: unseen parameters, normalized with the training
	// transform (as the paper does).
	setII, err := dataset.Generate(dataset.GenerateOpts{
		Base: cfg,
		V0s:  []float64{0.2}, Vths: []float64{0.025},
		Repeats: 1, Steps: 100, SampleEvery: 2,
		Spec: spec, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := setII.NormalizeWith(ds.Norm); err != nil {
		log.Fatal(err)
	}

	// The three architectures at one scaled width, each initialised
	// from the same seed.
	const hidden, layers = 64, 2
	builds := []struct {
		name   string
		epochs int
		build  func(*rng.Source) (*nn.Network, error)
	}{
		{"MLP", 20, func(r *rng.Source) (*nn.Network, error) {
			return nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: ds.Cells, Hidden: hidden, HiddenLayers: layers}, r)
		}},
		{"CNN", 8, func(r *rng.Source) (*nn.Network, error) { // conv epochs are ~10x more expensive
			return nn.NewCNN(nn.CNNConfig{H: spec.NV, W: spec.NX, OutDim: ds.Cells,
				Channels1: 2, Channels2: 4, Kernel: 3, Hidden: hidden, HiddenLayers: layers}, r)
		}},
		{"ResMLP", 20, func(r *rng.Source) (*nn.Network, error) {
			return nn.NewResMLP(nn.ResMLPConfig{InDim: spec.Size(), OutDim: ds.Cells, Hidden: hidden, Blocks: 2}, r)
		}},
	}

	rows := [][]string{{"Arch", "Params", "Train time", "MAE (I)", "Max (I)", "MAE (II)", "Max (II)"}}
	for _, b := range builds {
		net, err := b.build(rng.New(5))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "training %s...\n", b.name)
		start := time.Now()
		if _, err := nn.Fit(net, train.Inputs, train.Targets, val.Inputs, val.Targets, nn.TrainConfig{
			Epochs: b.epochs, BatchSize: 64, Optimizer: nn.NewAdam(1e-3), Loss: nn.MSE{}, Seed: 6,
		}); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start).Round(time.Second)
		mI := nn.Evaluate(net, testI.Inputs, testI.Targets, 64)
		mII := nn.Evaluate(net, setII.Inputs, setII.Targets, 64)
		rows = append(rows, []string{
			b.name,
			fmt.Sprintf("%d", net.NumParams()),
			elapsed.String(),
			fmt.Sprintf("%.4g", mI.MAE), fmt.Sprintf("%.4g", mI.MaxErr),
			fmt.Sprintf("%.4g", mII.MAE), fmt.Sprintf("%.4g", mII.MaxErr),
		})
	}
	fmt.Println()
	fmt.Println("Table I (miniature): DL field-solver error by architecture")
	fmt.Println("(set I: held-out from training parameters; set II: v0=0.2, vth=0.025, unseen)")
	fmt.Println()
	fmt.Print(ascii.Table(rows))
}
