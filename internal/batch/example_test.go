package batch_test

import (
	"fmt"

	"dlpic/internal/batch"
	"dlpic/internal/core"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
)

// ExampleFromNNSolver routes a DL-method sweep through the batched
// inference server and checks it against the per-call path, which
// clones the solver for every scenario. The two are bit-identical; the
// batched path shares one network and stacks the concurrent scenarios'
// field solves into single PredictBatch calls.
func ExampleFromNNSolver() {
	cfg := pic.Default()
	cfg.Cells = 16
	cfg.ParticlesPerCell = 25
	spec := phasespace.DefaultSpec(cfg.Length)
	spec.NX, spec.NV = 16, 8
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: cfg.Cells, Hidden: 12, HiddenLayers: 2}, rng.New(3))
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	// An untrained network produces meaningless physics, but the example
	// only demonstrates the batched plumbing, which is weight-agnostic.
	solver, err := core.NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 50}, cfg.Cells)
	if err != nil {
		fmt.Println("wrap failed:", err)
		return
	}
	scs := sweep.Grid(cfg, []float64{0.15, 0.2}, []float64{0, 0.025}, 1, 6, 1)

	perCall := sweep.Run(scs, sweep.Options{
		SkipFit: true,
		Methods: []sweep.MethodSpec{{Name: "mlp", Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
			return solver.Clone()
		}}},
	})

	bs, err := batch.FromNNSolver(solver, 0)
	if err != nil {
		fmt.Println("batched solver failed:", err)
		return
	}
	defer bs.Close()
	batched := sweep.Run(scs, sweep.Options{SkipFit: true,
		Methods: []sweep.MethodSpec{{Name: "mlp-batched", Batcher: bs}}})

	identical := sweep.FirstError(perCall) == nil && sweep.FirstError(batched) == nil
	for i := range batched {
		a, b := perCall[i].Rec.Samples, batched[i].Rec.Samples
		if len(a) != len(b) {
			identical = false
			continue
		}
		for j := range a {
			if a[j] != b[j] {
				identical = false
			}
		}
	}
	st := bs.Server.Stats()
	fmt.Printf("%d scenarios, %d batched field solves; bit-identical to per-call: %v\n",
		len(scs), st.Requests, identical)
	// Output:
	// 4 scenarios, 28 batched field solves; bit-identical to per-call: true
}
