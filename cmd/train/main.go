// Command train fits a DL electric-field solver on a corpus produced by
// cmd/datagen and writes a deployable model bundle (network weights +
// input normalizer + binning spec) for cmd/picrun -method dl.
// It reports the paper's Table-I metrics (MAE, max error) on a held-out
// test split.
//
// Examples:
//
//	train -data corpus.ds -out solver.dlpic                 # scaled MLP
//	train -data corpus.ds -arch cnn -epochs 100 -lr 1e-4    # paper CNN
//	train -data corpus.ds -loss pinn                        # physics loss
//
// Checkpointed training: -checkpoint writes the full training state
// (weights, optimizer moments, shuffle cursor, history) atomically
// after every -checkpoint-every epochs; after a kill, -resume restores
// it and continues to -epochs, producing a model bundle byte-identical
// to an uninterrupted run's:
//
//	train -data corpus.ds -epochs 100 -checkpoint fit.ckpt
//	train -data corpus.ds -epochs 100 -checkpoint fit.ckpt -resume
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"dlpic/internal/ascii"
	"dlpic/internal/core"
	"dlpic/internal/dataset"
	"dlpic/internal/nn"
	"dlpic/internal/rng"
)

func main() {
	var (
		data   = flag.String("data", "", "training corpus path (from datagen)")
		out    = flag.String("out", "solver.dlpic", "output model bundle path")
		arch   = flag.String("arch", "mlp", "architecture: mlp | cnn | resmlp")
		hidden = flag.Int("hidden", 128, "dense layer width (paper: 1024)")
		layers = flag.Int("layers", 3, "dense layer count (paper: 3)")
		ch1    = flag.Int("ch1", 4, "CNN block-1 channels")
		ch2    = flag.Int("ch2", 8, "CNN block-2 channels")
		blocks = flag.Int("blocks", 2, "ResMLP residual blocks")
		epochs = flag.Int("epochs", 30, "training epochs (paper: 150 MLP / 100 CNN)")
		batch  = flag.Int("batch", 64, "batch size (paper: 64)")
		lr     = flag.Float64("lr", 1e-3, "Adam learning rate (paper: 1e-4)")
		loss   = flag.String("loss", "mse", "loss: mse | mae | huber | pinn")
		valN   = flag.Int("val", 0, "validation samples (0 = 1/40 of corpus)")
		testN  = flag.Int("test", 0, "test samples (0 = 1/40 of corpus)")
		seed   = flag.Uint64("seed", 1, "seed for init and shuffling")
		cells  = flag.Int("grid-cells", 64, "PIC grid cells (for the pinn loss dx)")
		tw     = flag.Int("train-workers", 0, "data-parallel training workers (0 = GOMAXPROCS); weights and losses are bit-identical for any value")
		ckpt   = flag.String("checkpoint", "", "write the full training state (weights, optimizer moments, shuffle cursor, history) to this file after each checkpoint interval; resume a killed fit with -resume")
		ckptN  = flag.Int("checkpoint-every", 1, "checkpoint after every N epochs (the final epoch is always checkpointed)")
		resume = flag.Bool("resume", false, "resume training from the -checkpoint file: continues to -epochs and is bit-identical to an uninterrupted fit (the network comes from the checkpoint; -arch/-hidden/... are ignored, and everything else must match the interrupted run)")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "train: -data is required")
		os.Exit(2)
	}
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "train: -resume needs -checkpoint")
		os.Exit(2)
	}
	err := run(trainOpts{
		data: *data, out: *out, arch: *arch,
		hidden: *hidden, layers: *layers, ch1: *ch1, ch2: *ch2, blocks: *blocks,
		epochs: *epochs, batch: *batch, lr: *lr, loss: *loss,
		valN: *valN, testN: *testN, seed: *seed, gridCells: *cells, trainWorkers: *tw,
		checkpoint: nn.Checkpoint{Path: *ckpt, Every: *ckptN}, resume: *resume,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

// trainOpts bundles the CLI flags.
type trainOpts struct {
	data, out, arch                  string
	hidden, layers, ch1, ch2, blocks int
	epochs, batch                    int
	lr                               float64
	loss                             string
	valN, testN                      int
	seed                             uint64
	gridCells, trainWorkers          int
	checkpoint                       nn.Checkpoint
	resume                           bool
}

func run(o trainOpts) error {
	ds, err := dataset.LoadFile(o.data)
	if err != nil {
		return err
	}
	if !ds.Normalized {
		if err := ds.Normalize(); err != nil {
			return err
		}
	}
	ds.Shuffle(o.seed)
	valN, testN := o.valN, o.testN
	if valN <= 0 {
		valN = ds.N() / 40
		if valN < 8 {
			valN = 8
		}
	}
	if testN <= 0 {
		testN = valN
	}
	train, val, test, err := ds.Split(ds.N()-valN-testN, valN, testN)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "train: %d train / %d val / %d test samples, %d inputs -> %d outputs\n",
		train.N(), val.N(), test.N(), ds.Spec.Size(), ds.Cells)

	var lossFn nn.Loss
	switch o.loss {
	case "mse":
		lossFn = nn.MSE{}
	case "mae":
		lossFn = nn.MAE{}
	case "huber":
		lossFn = nn.Huber{Delta: 0.05}
	case "pinn":
		dx := ds.Spec.L / float64(o.gridCells)
		lossFn = nn.PhysicsMSE{Dx: dx, LambdaDiv: 0.1, LambdaMean: 0.1}
	default:
		return fmt.Errorf("unknown loss %q", o.loss)
	}
	tc := nn.TrainConfig{
		Epochs: o.epochs, BatchSize: o.batch, Optimizer: nn.NewAdam(o.lr),
		Loss: lossFn, Seed: o.seed + 2, Log: os.Stderr, LogEvery: 5,
		Workers: o.trainWorkers, Checkpoint: o.checkpoint,
	}

	var net *nn.Network
	var hist nn.History
	if o.resume {
		// The checkpoint carries the architecture and weights; the data,
		// loss, optimizer and seeds must match the interrupted run (the
		// checkpoint fingerprint enforces it).
		net, hist, err = nn.ResumeFit(train.Inputs, train.Targets, val.Inputs, val.Targets, tc)
		if err != nil {
			return err
		}
	} else {
		r := rng.New(o.seed + 1)
		switch o.arch {
		case "mlp":
			net, err = nn.NewMLP(nn.MLPConfig{
				InDim: ds.Spec.Size(), OutDim: ds.Cells, Hidden: o.hidden, HiddenLayers: o.layers}, r)
		case "cnn":
			net, err = nn.NewCNN(nn.CNNConfig{
				H: ds.Spec.NV, W: ds.Spec.NX, OutDim: ds.Cells,
				Channels1: o.ch1, Channels2: o.ch2, Kernel: 3, Hidden: o.hidden, HiddenLayers: o.layers}, r)
		case "resmlp":
			net, err = nn.NewResMLP(nn.ResMLPConfig{
				InDim: ds.Spec.Size(), OutDim: ds.Cells, Hidden: o.hidden, Blocks: o.blocks}, r)
		default:
			return fmt.Errorf("unknown architecture %q", o.arch)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "train: %s\n", net.Summary())
		hist, err = nn.Fit(net, train.Inputs, train.Targets, val.Inputs, val.Targets, tc)
		if err != nil {
			return err
		}
	}
	final := hist.Final()
	fmt.Fprintf(os.Stderr, "train: final loss %.6g, val MAE %.6g\n", final.TrainLoss, final.ValMAE)

	m := nn.Evaluate(net, test.Inputs, test.Targets, o.batch)
	var maxField float64
	for _, v := range test.Targets.Data {
		if a := math.Abs(v); a > maxField {
			maxField = a
		}
	}
	fmt.Println(ascii.Table([][]string{
		{"Metric (held-out test)", "Value"},
		{"Mean Absolute Error", fmt.Sprintf("%.4g", m.MAE)},
		{"Max Error", fmt.Sprintf("%.4g", m.MaxErr)},
		{"RMSE", fmt.Sprintf("%.4g", m.RMSE)},
		{"Max |E| in test set", fmt.Sprintf("%.4g", maxField)},
		{"Samples", fmt.Sprintf("%d", m.N)},
	}))

	solver, err := core.NewNNSolver(net, ds.Spec, ds.Norm, ds.Cells)
	if err != nil {
		return err
	}
	if err := core.SaveModelFile(solver, ds.Cells, o.out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.out)
	return nil
}
