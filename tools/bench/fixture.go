package main

import (
	"fmt"
	"time"

	"dlpic/internal/core"
	"dlpic/internal/dataset"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
)

// fixtureSize sizes the corpus and network a workload trains through
// the public pipeline (dataset.Generate -> Normalize -> nn.Fit). The DL
// workloads need a *trained* net: an untrained one diverges, densifies
// the histogram and changes the zero-skip GEMM cost.
type fixtureSize struct {
	v0s, vths   []float64
	steps       int
	sampleEvery int
	hidden      int
	epochs      int
}

// Full size: 15 traditional runs at the workload's particle count, 750
// samples, MLP 4096 -> 3x192 -> 64, 6 epochs. Measured on the 2-vCPU
// reference box at 1000 ppc: generate 2.3 s + fit 1.1 s, val MAE 0.015,
// and the 200-step DL run stays finite with energy variation ~0.2.
var fullFixture = fixtureSize{
	v0s: []float64{0.1, 0.15, 0.18, 0.22, 0.3}, vths: []float64{0, 0.01, 0.03},
	steps: 200, sampleEvery: 4, hidden: 192, epochs: 6,
}

var quickFixture = fixtureSize{
	v0s: []float64{0.15, 0.2}, vths: []float64{0}, steps: 40, sampleEvery: 4, hidden: 16, epochs: 2,
}

// corpus is a normalised, shuffled, split training set with the time
// each stage took.
type corpus struct {
	spec       phasespace.GridSpec
	norm       phasespace.Normalizer
	train, val *dataset.Dataset
	samples    int
	generateS  float64
	prepMS     float64
}

func makeCorpus(base pic.Config, sz fixtureSize, seed uint64) (*corpus, error) {
	c := &corpus{spec: phasespace.DefaultSpec(base.Length)}
	t0 := time.Now()
	ds, err := dataset.Generate(dataset.GenerateOpts{
		Base: base, V0s: sz.v0s, Vths: sz.vths, Repeats: 1, Steps: sz.steps,
		SampleEvery: sz.sampleEvery, Spec: c.spec, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("corpus generation: %w", err)
	}
	c.generateS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := ds.Normalize(); err != nil {
		return nil, err
	}
	ds.Shuffle(seed + 1)
	nVal := max(ds.N()/10, 8)
	c.train, c.val, _, err = ds.Split(ds.N()-nVal, nVal, 0)
	if err != nil {
		return nil, err
	}
	c.prepMS = msSince(t0)
	c.norm, c.samples = ds.Norm, ds.N()
	return c, nil
}

func (c *corpus) newMLP(hidden, cells int, seed uint64) (*nn.Network, error) {
	return nn.NewMLP(nn.MLPConfig{InDim: c.spec.Size(), OutDim: cells, Hidden: hidden, HiddenLayers: 3}, rng.New(seed))
}

// trainConfig is the one training recipe of the benchmark: batch 64,
// Adam, default Workers, no opt-in knobs.
func trainConfig(epochs int, seed uint64) nn.TrainConfig {
	return nn.TrainConfig{Epochs: epochs, BatchSize: 64, Optimizer: nn.NewAdam(1e-3), Loss: nn.MSE{}, Seed: seed, LogEvery: 1}
}

// trainSolver builds the fixture a DL workload runs: corpus at base's
// particle count, a fitted MLP, wrapped as the field method.
func trainSolver(base pic.Config, sz fixtureSize, seed uint64) (*core.NNSolver, *corpus, error) {
	c, err := makeCorpus(base, sz, seed)
	if err != nil {
		return nil, nil, err
	}
	net, err := c.newMLP(sz.hidden, base.Cells, seed+2)
	if err != nil {
		return nil, nil, err
	}
	if _, err := nn.Fit(net, c.train.Inputs, c.train.Targets, c.val.Inputs, c.val.Targets, trainConfig(sz.epochs, seed+3)); err != nil {
		return nil, nil, fmt.Errorf("fixture fit: %w", err)
	}
	solver, err := core.NewNNSolver(net, c.spec, c.norm, base.Cells)
	return solver, c, err
}

// forwardMACs is the multiply-accumulate count of one forward pass,
// computed from the weight shapes (biases are [1, out] and skipped).
func forwardMACs(net *nn.Network) float64 {
	macs := 0.0
	for _, p := range net.Params() {
		if p.W.Rows() > 1 {
			macs += float64(p.W.Len())
		}
	}
	return macs
}
