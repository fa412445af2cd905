package nn

import (
	"math"
	"runtime"
	"testing"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// fitResult snapshots everything Fit produces: final weights and the
// full history. Comparison is by exact bits (==).
type fitResult struct {
	weights [][]float64
	hist    History
}

func runFit(t *testing.T, build func() (*Network, error), inDim, outDim, n int, cfg TrainConfig) fitResult {
	t.Helper()
	r := rng.New(900)
	x := randBatch(r, n, inDim)
	y := randBatch(r, n, outDim)
	xv := randBatch(r, 24, inDim)
	yv := randBatch(r, 24, outDim)
	net, err := build()
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Fit(net, x, y, xv, yv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res fitResult
	res.hist = hist
	for _, p := range net.Params() {
		res.weights = append(res.weights, append([]float64(nil), p.W.Data...))
	}
	return res
}

func sameFit(a, b fitResult) (string, bool) {
	if len(a.weights) != len(b.weights) {
		return "param count", false
	}
	for pi := range a.weights {
		for i := range a.weights[pi] {
			if a.weights[pi][i] != b.weights[pi][i] {
				return "weights", false
			}
		}
	}
	if len(a.hist.Epochs) != len(b.hist.Epochs) {
		return "epoch count", false
	}
	for i := range a.hist.Epochs {
		ae, be := a.hist.Epochs[i], b.hist.Epochs[i]
		if ae.TrainLoss != be.TrainLoss {
			return "train loss", false
		}
		// NaN != NaN; validation metrics are set in these tests.
		if ae.ValMAE != be.ValMAE || ae.ValMax != be.ValMax {
			return "validation metrics", false
		}
	}
	return "", true
}

// The tentpole property: the sharded Fit is bit-identical — weights,
// epoch losses, validation history — at Workers = 1, 2, 4, 8, for every
// architecture, with both the auto shard decomposition and an explicit
// override. This is what makes training reproducible on any machine
// regardless of core count.
func TestFitBitIdenticalAcrossWorkers(t *testing.T) {
	archs := []struct {
		name          string
		inDim, outDim int
		build         func() (*Network, error)
	}{
		{"mlp", 12, 6, func() (*Network, error) {
			return NewMLP(MLPConfig{InDim: 12, OutDim: 6, Hidden: 16, HiddenLayers: 2}, rng.New(910))
		}},
		{"cnn", 64, 5, func() (*Network, error) {
			return NewCNN(CNNConfig{H: 8, W: 8, OutDim: 5, Channels1: 2, Channels2: 2,
				Kernel: 3, Hidden: 12, HiddenLayers: 1}, rng.New(911))
		}},
		{"resmlp", 12, 6, func() (*Network, error) {
			return NewResMLP(ResMLPConfig{InDim: 12, OutDim: 6, Hidden: 16, Blocks: 1}, rng.New(912))
		}},
	}
	for _, arch := range archs {
		for _, shards := range []int{0, 8} {
			// n=72, bs=32: batches of 32, 32, 8 — multi-shard bodies
			// plus a tail batch with its own smaller decomposition. The
			// optimizer is stateful (Adam's step counter), so every run
			// gets a fresh instance.
			mkCfg := func(workers int) TrainConfig {
				return TrainConfig{Epochs: 3, BatchSize: 32, Optimizer: NewAdam(1e-3),
					Loss: MSE{}, Seed: 5, Shards: shards, Workers: workers}
			}
			ref := runFit(t, arch.build, arch.inDim, arch.outDim, 72, mkCfg(1))
			for _, workers := range []int{2, 4, 8} {
				got := runFit(t, arch.build, arch.inDim, arch.outDim, 72, mkCfg(workers))
				if what, ok := sameFit(ref, got); !ok {
					t.Errorf("%s shards=%d: Workers=%d differs from serial in %s",
						arch.name, shards, workers, what)
				}
			}
		}
	}
}

// The default Workers=0 (GOMAXPROCS) must also match the serial result
// at any GOMAXPROCS — the engine never lets the machine's core count
// leak into the arithmetic.
func TestFitBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	build := func() (*Network, error) {
		return NewMLP(MLPConfig{InDim: 10, OutDim: 4, Hidden: 12, HiddenLayers: 2}, rng.New(920))
	}
	run := func(procs int) fitResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return runFit(t, build, 10, 4, 80, TrainConfig{
			Epochs: 2, BatchSize: 32, Optimizer: NewAdam(1e-3), Loss: MSE{}, Seed: 9})
	}
	ref := run(1)
	for _, procs := range []int{2, 8} {
		if what, ok := sameFit(ref, run(procs)); !ok {
			t.Errorf("GOMAXPROCS=%d differs from 1 in %s", procs, what)
		}
	}
}

// Sharding must also hold for the physics-informed loss, whose
// normalization mixes per-element and per-row terms — the shard seam
// most likely to get a denominator wrong.
func TestFitShardedPhysicsLoss(t *testing.T) {
	build := func() (*Network, error) {
		return NewMLP(MLPConfig{InDim: 8, OutDim: 8, Hidden: 12, HiddenLayers: 1}, rng.New(930))
	}
	mkCfg := func(workers int) TrainConfig {
		return TrainConfig{Epochs: 2, BatchSize: 24, Optimizer: NewAdam(1e-3),
			Loss: PhysicsMSE{Dx: 0.1, LambdaDiv: 0.3, LambdaMean: 0.2}, Seed: 3, Workers: workers}
	}
	ref := runFit(t, build, 8, 8, 60, mkCfg(1))
	for _, workers := range []int{2, 8} {
		if what, ok := sameFit(ref, runFit(t, build, 8, 8, 60, mkCfg(workers))); !ok {
			t.Errorf("physics loss: Workers=%d differs in %s", workers, what)
		}
	}
}

// ForwardShard over disjoint shards must reproduce the full-batch
// call: summed loss equal, per-row gradients bit-identical.
func TestLossForwardShardConsistency(t *testing.T) {
	r := rng.New(940)
	const rows, cols = 11, 8
	pred := randBatch(r, rows, cols)
	targ := randBatch(r, rows, cols)
	losses := []Loss{MSE{}, MAE{}, Huber{Delta: 0.5},
		PhysicsMSE{Dx: 0.1, LambdaDiv: 0.4, LambdaMean: 0.3}}
	for _, l := range losses {
		full := tensor.New(rows, cols)
		wantLoss := l.ForwardShard(pred, targ, full, rows)
		var gotLoss float64
		got := tensor.New(rows, cols)
		for _, bounds := range [][2]int{{0, 4}, {4, 9}, {9, rows}} {
			s, e := bounds[0], bounds[1]
			sp := tensor.FromSlice(pred.Data[s*cols:e*cols], e-s, cols)
			st := tensor.FromSlice(targ.Data[s*cols:e*cols], e-s, cols)
			sg := tensor.FromSlice(got.Data[s*cols:e*cols], e-s, cols)
			gotLoss += l.ForwardShard(sp, st, sg, rows)
		}
		if math.Abs(gotLoss-wantLoss) > 1e-13*math.Abs(wantLoss) {
			t.Errorf("%s: shard losses sum to %v, full batch %v", l.Name(), gotLoss, wantLoss)
		}
		for i := range got.Data {
			if got.Data[i] != full.Data[i] {
				t.Errorf("%s: shard gradient differs at %d: %v vs %v", l.Name(), i, got.Data[i], full.Data[i])
				break
			}
		}
	}
}

// countingLoss records how many rows it scored — the tail-batch probe.
type countingLoss struct {
	MSE
	rows *int
}

func (c countingLoss) ForwardShard(pred, target, grad *tensor.Tensor, totalRows int) float64 {
	*c.rows += pred.Rows()
	return c.MSE.ForwardShard(pred, target, grad, totalRows)
}

// Fit must train on the trailing partial batch: every sample of every
// epoch reaches the loss exactly once (the seed dropped up to
// BatchSize-1 samples per epoch).
func TestFitTrainsTailBatch(t *testing.T) {
	r := rng.New(950)
	const n, bs, epochs = 19, 8, 3 // 19 = 8 + 8 + 3-row tail
	net, err := NewMLP(MLPConfig{InDim: 4, OutDim: 2, Hidden: 8, HiddenLayers: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(r, n, 4)
	y := randBatch(r, n, 2)
	var rows int
	_, err = Fit(net, x, y, nil, nil, TrainConfig{
		Epochs: epochs, BatchSize: bs, Optimizer: NewAdam(1e-3),
		Loss: countingLoss{rows: &rows}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != n*epochs {
		t.Fatalf("loss scored %d rows over %d epochs of %d samples, want %d (tail batch dropped?)",
			rows, epochs, n, n*epochs)
	}
}

// Evaluate must be bit-identical at every worker count, including the
// tail batch, and must agree with the serial reference reduction.
func TestEvaluateBitIdenticalAcrossWorkers(t *testing.T) {
	r := rng.New(960)
	net, err := NewMLP(MLPConfig{InDim: 6, OutDim: 3, Hidden: 8, HiddenLayers: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(r, 53, 6) // 53 rows, batch 8: 7 batches, 5-row tail
	y := randBatch(r, 53, 3)
	ref := EvaluateWorkers(net, x, y, 8, 1)
	for _, workers := range []int{2, 4, 8, 0} {
		m := EvaluateWorkers(net, x, y, 8, workers)
		if m != ref {
			t.Errorf("workers=%d: %+v != serial %+v", workers, m, ref)
		}
	}
	if ref.N != 53 {
		t.Errorf("N = %d, want 53", ref.N)
	}
}

// The engine must reject (not silently mis-train) nets it cannot
// replicate, and Evaluate must fall back to the serial path for them.
func TestShardEngineUnknownLayer(t *testing.T) {
	net := &Network{InDim: 2, Layers: []Layer{fakeLayer{}}}
	x := tensor.New(3, 2)
	y := tensor.New(3, 2)
	if _, err := Fit(net, x, y, nil, nil, TrainConfig{
		Epochs: 1, BatchSize: 2, Optimizer: NewAdam(0.1), Loss: MSE{},
	}); err == nil {
		t.Error("Fit should refuse a net with unreplicable layers")
	}
	if m := Evaluate(net, x, y, 2); m.N != 3 {
		t.Errorf("serial-fallback Evaluate N = %d, want 3", m.N)
	}
}

// shardCount is a pure function of the batch geometry.
func TestShardCount(t *testing.T) {
	for _, tc := range []struct{ rows, override, want int }{
		{64, 0, 4},
		{32, 0, 2},
		{16, 0, 1},
		{3, 0, 1},
		{200, 0, 8}, // capped
		{64, 8, 8},
		{2, 8, 2}, // clamped to rows
		{0, 0, 0},
	} {
		if got := shardCount(tc.rows, tc.override); got != tc.want {
			t.Errorf("shardCount(%d, %d) = %d, want %d", tc.rows, tc.override, got, tc.want)
		}
	}
}
