package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dlpic/internal/nn"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// train_mlp: time to a trained solver. Set-up generates the corpus (15
// traditional runs at 1000 ppc, 1500 samples) and fits one reference
// round; the measured region repeats that round - a fresh MLP 4096 ->
// 3x192 -> 64 from the same seed, trainEpochs epochs, nn.Evaluate -
// until the budget is spent. The op is one epoch, timestamped from
// outside by the io.Writer passed as TrainConfig.Log.

const (
	trainEpochs = 6
	// Validation MAE a round must reach (the field scale is ~0.1).
	// Measured 0.011-0.013 over seeds after 6 epochs on 1350 samples.
	trainMAEBound = 0.02
)

// epochClock is the TrainConfig.Log sink: Fit writes one line per
// epoch, so the time between writes is the epoch.
type epochClock struct {
	last    time.Time
	epochMS []float64
	tr      *tracer
	parent  int
	round   int
}

func (c *epochClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.epochMS = append(c.epochMS, float64(now.Sub(c.last))/float64(time.Millisecond))
	c.tr.record("nn.epoch", c.parent, c.round, c.last, now)
	c.last = now
	return len(p), nil
}

// trainRound is one fit from scratch with its evaluation.
type trainRound struct {
	net     *nn.Network
	losses  []float64
	valMAE  float64
	epochMS []float64
	fitS    float64
	evalMS  float64
}

func fitRound(c *corpus, sz fixtureSize, cells int, seed uint64, tr *tracer, round int) (*trainRound, error) {
	net, err := c.newMLP(sz.hidden, cells, seed+2)
	if err != nil {
		return nil, err
	}
	root := tr.begin("nn.fit", -1, round)
	clock := &epochClock{last: time.Now(), tr: tr, parent: root, round: round}
	tc := trainConfig(sz.epochs, seed+3)
	tc.Log = clock
	t0 := time.Now()
	hist, err := nn.Fit(net, c.train.Inputs, c.train.Targets, c.val.Inputs, c.val.Targets, tc)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	r := &trainRound{net: net, epochMS: clock.epochMS, fitS: time.Since(t0).Seconds()}
	for _, ep := range hist.Epochs {
		r.losses = append(r.losses, ep.TrainLoss)
	}
	id := tr.begin("nn.evaluate", -1, round)
	t0 = time.Now()
	r.valMAE = nn.Evaluate(net, c.val.Inputs, c.val.Targets, 64).MAE
	r.evalMS = msSince(t0)
	tr.end(id)
	return r, nil
}

// check holds a round against the reference round of the same seed:
// training is deterministic, so every loss must repeat bitwise.
func (r *trainRound) check(ref *trainRound, maeBound float64) error {
	if len(r.losses) != len(ref.losses) {
		return fmt.Errorf("round ran %d epochs, reference %d", len(r.losses), len(ref.losses))
	}
	for i := range r.losses {
		if math.Float64bits(r.losses[i]) != math.Float64bits(ref.losses[i]) {
			return fmt.Errorf("epoch %d loss %v differs from the reference round's %v", i, r.losses[i], ref.losses[i])
		}
	}
	if !(r.valMAE <= maeBound) {
		return fmt.Errorf("validation MAE %.4g above %g", r.valMAE, maeBound)
	}
	return nil
}

func runTrainMLP(e *env) (*outcome, error) {
	base := pic.Default()
	base.ParticlesPerCell = picFullPPC
	sz, maeBound := fullFixture, trainMAEBound
	sz.sampleEvery, sz.epochs = 2, trainEpochs
	if e.quick {
		base.ParticlesPerCell = picQuickPPC
		sz, maeBound = quickFixture, math.Inf(1)
	}
	o := &outcome{}
	var c *corpus
	var ref *trainRound
	err := o.timeSetup(func() (err error) {
		if c, err = makeCorpus(base, sz, e.seed); err != nil {
			return err
		}
		ref, err = fitRound(c, sz, base.Cells, e.seed, nil, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := ref.check(ref, maeBound); err != nil {
		return nil, fmt.Errorf("reference round: %w", err)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var fitS, evalMS []float64
	var last *trainRound
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < e.budget(); round++ {
		r, err := fitRound(c, sz, base.Cells, e.seed, e.tr, round)
		o.attempted += sz.epochs
		if err != nil {
			o.fail(sz.epochs, fmt.Errorf("round %d: %w", round, err))
			continue
		}
		if err := r.check(ref, maeBound); err != nil {
			o.fail(sz.epochs, fmt.Errorf("round %d: %w", round, err))
		}
		o.opMS = append(o.opMS, r.epochMS...)
		o.work += float64(c.train.N() * sz.epochs)
		fitS, evalMS, last = append(fitS, r.fitS), append(evalMS, r.evalMS), r
	}
	o.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6

	if e.tr != nil && last != nil {
		e.timings["nn.epoch_p50_ms"] = summarize(o.opMS, "ms")
		o.set("dataset.generate_s", c.generateS)
		o.set("dataset.prep_ms", c.prepMS)
		o.set("dataset.samples", float64(c.samples))
		o.set("nn.fit_s", median(fitS))
		o.set("nn.epoch_p50_ms", median(o.opMS))
		o.set("nn.evaluate_ms", median(evalMS))
		o.set("nn.val_mae", last.valMAE)
		// Computed: forward, weight gradients, and input gradients for
		// every layer but the first.
		fwd := forwardMACs(last.net)
		o.set("nn.fit_macs_per_sample", 3*fwd-float64(last.net.Params()[0].W.Len()))
		trainGEMMs(o, c, last.net, e.seed)
		// The reference round in set-up ran without spans.
		o.set("trace.overhead_pct", overheadPct(o.opMS, ref.epochMS))
	}
	return o, nil
}

// trainGEMMs times the three first-layer training GEMMs (batch 64) with
// a real normalised minibatch as the activation operand and the trained
// first-layer weights, so the zero-skip paths see real sparsity.
func trainGEMMs(o *outcome, c *corpus, net *nn.Network, seed uint64) {
	const batch = 64
	w := net.Params()[0].W // [in, hidden]
	in, hidden := w.Rows(), w.Cols()
	rows := min(batch, c.train.N())
	x := tensor.FromSlice(c.train.Inputs.Data[:rows*in], rows, in)
	dy := tensor.New(rows, hidden)
	dy.RandomNormal(rng.New(seed+9), 0.01)
	time3 := func(dst, a, b *tensor.Tensor, ta, tb bool) float64 {
		ms, _ := repeatMedian(30, time.Millisecond, func() error {
			tensor.MatMul(dst, a, b, ta, tb)
			return nil
		})
		sink = dst.Data[0]
		return ms
	}
	nnMS := time3(tensor.New(rows, hidden), x, w, false, false) // forward: x W
	o.set("tensor.gemm_nn_ms", nnMS)
	o.set("tensor.gemm_nt_ms", time3(tensor.New(rows, in), dy, w, false, true))   // input grad: dy W^T
	o.set("tensor.gemm_tn_ms", time3(tensor.New(in, hidden), x, dy, true, false)) // weight grad: x^T dy
	o.set("tensor.gemm_gflops", 2*float64(rows*in*hidden)/(nnMS*1e6))
}
