package nn

import (
	"bytes"
	"math"
	"testing"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// GradCheck compares the analytic gradient of net's parameters (under
// loss) against central finite differences on a given batch. It returns
// the largest relative error encountered over a sample of parameter
// entries (stride subsamples large tensors): the gradient oracle for
// every layer type and loss.
func GradCheck(net *Network, loss Loss, x, y *tensor.Tensor, eps float64, stride int) float64 {
	if stride < 1 {
		stride = 1
	}
	pred := net.Forward(x)
	grad := tensor.New(pred.Shape...)
	loss.ForwardShard(pred, y, grad, pred.Rows())
	for _, p := range net.Params() {
		p.G.Zero()
	}
	net.Backward(grad)
	// Snapshot analytic gradients (optimizer-free), keyed by the stable
	// weight tensor pointer (Params() returns fresh Param structs).
	analytic := map[*tensor.Tensor][]float64{}
	for _, p := range net.Params() {
		analytic[p.W] = append([]float64(nil), p.G.Data...)
	}
	var worst float64
	for _, p := range net.Params() {
		for i := 0; i < p.W.Len(); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := evalLoss(net, loss, x, y)
			p.W.Data[i] = orig - eps
			lm := evalLoss(net, loss, x, y)
			p.W.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			a := analytic[p.W][i]
			denom := maxf(1e-8, maxf(absf(a), absf(numeric)))
			if rel := absf(a-numeric) / denom; rel > worst && absf(a-numeric) > 1e-9 {
				worst = rel
			}
		}
	}
	return worst
}

func evalLoss(net *Network, loss Loss, x, y *tensor.Tensor) float64 {
	pred := net.Forward(x)
	grad := tensor.New(pred.Shape...)
	return loss.ForwardShard(pred, y, grad, pred.Rows())
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func randBatch(r *rng.Source, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	t.RandomNormal(r, 1)
	return t
}

// ---------------------------------------------------------------------------
// Gradient checks: every layer type against finite differences.

func gradCheckNet(t *testing.T, net *Network, inDim, outDim int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	x := randBatch(r, 3, inDim)
	y := randBatch(r, 3, outDim)
	if worst := GradCheck(net, MSE{}, x, y, 1e-6, 1); worst > 1e-4 {
		t.Fatalf("gradient check failed: worst relative error %v", worst)
	}
}

func TestGradCheckDense(t *testing.T) {
	r := rng.New(1)
	net, err := NewNetwork(5, NewDense(5, 4, r))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 5, 4, 2)
}

func TestGradCheckMLP(t *testing.T) {
	net, err := NewMLP(MLPConfig{InDim: 6, OutDim: 3, Hidden: 8, HiddenLayers: 2}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 6, 3, 4)
}

func TestGradCheckConv(t *testing.T) {
	r := rng.New(5)
	net, err := NewNetwork(16, NewConv2D(1, 4, 4, 2, 3, r))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 16, 32, 6)
}

func TestGradCheckConvMultiChannel(t *testing.T) {
	r := rng.New(7)
	net, err := NewNetwork(32,
		NewConv2D(2, 4, 4, 3, 3, r), NewReLU(), NewConv2D(3, 4, 4, 2, 3, r))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 32, 32, 8)
}

func TestGradCheckMaxPool(t *testing.T) {
	r := rng.New(9)
	net, err := NewNetwork(32, NewConv2D(1, 4, 8, 2, 3, r), NewMaxPool2D(2, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 32, 2*2*4, 10)
}

func TestGradCheckFullCNN(t *testing.T) {
	net, err := NewCNN(CNNConfig{H: 8, W: 8, OutDim: 8, Channels1: 2, Channels2: 3,
		Kernel: 3, Hidden: 10, HiddenLayers: 2}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 64, 8, 12)
}

func TestGradCheckResidual(t *testing.T) {
	net, err := NewResMLP(ResMLPConfig{InDim: 6, OutDim: 4, Hidden: 8, Blocks: 2}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 6, 4, 14)
}

func TestGradCheckMAELoss(t *testing.T) {
	r := rng.New(15)
	net, err := NewNetwork(4, NewDense(4, 3, r))
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(r, 2, 4)
	y := randBatch(r, 2, 3)
	if worst := GradCheck(net, MAE{}, x, y, 1e-6, 1); worst > 1e-3 {
		t.Fatalf("MAE gradient check: worst %v", worst)
	}
}

func TestGradCheckHuberLoss(t *testing.T) {
	r := rng.New(16)
	net, err := NewNetwork(4, NewDense(4, 3, r))
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(r, 2, 4)
	y := randBatch(r, 2, 3)
	if worst := GradCheck(net, Huber{Delta: 0.5}, x, y, 1e-6, 1); worst > 1e-3 {
		t.Fatalf("Huber gradient check: worst %v", worst)
	}
}

func TestGradCheckPhysicsLoss(t *testing.T) {
	r := rng.New(17)
	net, err := NewNetwork(4, NewDense(4, 8, r))
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(r, 2, 4)
	y := randBatch(r, 2, 8)
	loss := PhysicsMSE{Dx: 0.1, LambdaDiv: 0.5, LambdaMean: 0.3}
	if worst := GradCheck(net, loss, x, y, 1e-6, 1); worst > 1e-4 {
		t.Fatalf("physics loss gradient check: worst %v", worst)
	}
}

// ---------------------------------------------------------------------------
// Layer semantics

func TestDenseForwardKnownValues(t *testing.T) {
	d := NewDense(2, 2, rng.New(1))
	copy(d.W.Data, []float64{1, 2, 3, 4}) // W[0][*]=[1,2], W[1][*]=[3,4]
	copy(d.B.Data, []float64{0.5, -0.5})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	out := d.Forward(x)
	// y = [1+3, 2+4] + b = [4.5, 5.5]
	if math.Abs(out.Row(0)[0]-4.5) > 1e-14 || math.Abs(out.Row(0)[1]-5.5) > 1e-14 {
		t.Fatalf("dense output %v", out.Data)
	}
}

func TestReLUSemantics(t *testing.T) {
	a := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	out := a.Forward(x)
	want := []float64{0, 0, 2}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu forward %v", out.Data)
		}
	}
	dy := tensor.FromSlice([]float64{5, 5, 5}, 1, 3)
	dx := a.Backward(dy)
	wantDx := []float64{0, 0, 5}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("relu backward %v", dx.Data)
		}
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// A 3x3 kernel with only the center weight set copies the input.
	r := rng.New(2)
	c := NewConv2D(1, 4, 4, 1, 3, r)
	c.Wt.Zero()
	c.Wt.Data[4] = 1 // center of the 3x3
	c.B.Zero()
	x := randBatch(r, 2, 16)
	out := c.Forward(x)
	for i := range x.Data {
		if math.Abs(out.Data[i]-x.Data[i]) > 1e-14 {
			t.Fatalf("identity conv mismatch at %d", i)
		}
	}
}

func TestConvShiftKernelRespectsPadding(t *testing.T) {
	// Kernel that picks the left neighbor: output[x] = input[x-1], zero at
	// the left edge (same padding).
	r := rng.New(3)
	c := NewConv2D(1, 1, 4, 1, 3, r)
	// Row-major kernel [k=3]: index 0 = left tap (kx=0 => sx = x-1).
	c.Wt.Zero()
	c.Wt.Data[0] = 1
	c.B.Zero()
	// H=1: pad in y means ky=0 and ky=2 rows fall outside; center row
	// ky=1... but with H=1 and pad=1, only ky=1 hits the image. The left
	// tap is (ky=0) though — all out of image. Use kx variation on the
	// center row: index ky*K+kx = 1*3+0 = 3.
	c.Wt.Zero()
	c.Wt.Data[3] = 1
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	out := c.Forward(x)
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if math.Abs(out.Data[i]-want[i]) > 1e-14 {
			t.Fatalf("shift conv = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolSemantics(t *testing.T) {
	m := NewMaxPool2D(1, 2, 4)
	x := tensor.FromSlice([]float64{
		1, 5, 2, 0,
		3, 4, 8, 1,
	}, 1, 8)
	out := m.Forward(x)
	if out.Cols() != 2 || out.Data[0] != 5 || out.Data[1] != 8 {
		t.Fatalf("maxpool forward %v", out.Data)
	}
	dy := tensor.FromSlice([]float64{10, 20}, 1, 2)
	dx := m.Backward(dy)
	// Gradient routes to positions of 5 (index 1) and 8 (index 6).
	want := []float64{0, 10, 0, 0, 0, 0, 20, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("maxpool backward %v, want %v", dx.Data, want)
		}
	}
}

func TestNetworkValidation(t *testing.T) {
	r := rng.New(4)
	if _, err := NewNetwork(0, NewDense(1, 1, r)); err == nil {
		t.Error("zero input width should fail")
	}
	if _, err := NewNetwork(5); err == nil {
		t.Error("no layers should fail")
	}
	if _, err := NewNetwork(5, NewDense(4, 3, r)); err == nil {
		t.Error("width mismatch should fail")
	}
	net, err := NewNetwork(4, NewDense(4, 3, r), NewReLU(), NewDense(3, 2, r))
	if err != nil {
		t.Fatal(err)
	}
	if net.OutDim() != 2 {
		t.Fatalf("OutDim = %d", net.OutDim())
	}
	if net.NumParams() != 4*3+3+3*2+2 {
		t.Fatalf("NumParams = %d", net.NumParams())
	}
}

func TestPredict1MatchesForward(t *testing.T) {
	r := rng.New(5)
	net, err := NewMLP(MLPConfig{InDim: 6, OutDim: 4, Hidden: 8, HiddenLayers: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 6)
	for i := range in {
		in[i] = r.NormFloat64()
	}
	out1 := make([]float64, 4)
	net.Predict1(in, out1)
	x := tensor.FromSlice(append([]float64(nil), in...), 1, 6)
	out2 := net.Forward(x)
	for i := range out1 {
		if math.Abs(out1[i]-out2.Data[i]) > 1e-14 {
			t.Fatalf("Predict1 mismatch at %d", i)
		}
	}
	// Repeat to exercise buffer reuse.
	net.Predict1(in, out1)
	for i := range out1 {
		if math.Abs(out1[i]-out2.Data[i]) > 1e-14 {
			t.Fatalf("Predict1 second call mismatch at %d", i)
		}
	}
}

// ---------------------------------------------------------------------------
// Losses

func TestMSEKnownValue(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 1, 2)
	targ := tensor.FromSlice([]float64{0, 4}, 1, 2)
	grad := tensor.New(1, 2)
	l := MSE{}.ForwardShard(pred, targ, grad, pred.Rows())
	if math.Abs(l-(1+4)/2.0) > 1e-14 {
		t.Fatalf("MSE = %v, want 2.5", l)
	}
	if math.Abs(grad.Data[0]-1) > 1e-14 || math.Abs(grad.Data[1]+2) > 1e-14 {
		t.Fatalf("MSE grad = %v", grad.Data)
	}
}

func TestMAEKnownValue(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 1, 2)
	targ := tensor.FromSlice([]float64{0, 4}, 1, 2)
	grad := tensor.New(1, 2)
	l := MAE{}.ForwardShard(pred, targ, grad, pred.Rows())
	if math.Abs(l-1.5) > 1e-14 {
		t.Fatalf("MAE = %v, want 1.5", l)
	}
	if grad.Data[0] != 0.5 || grad.Data[1] != -0.5 {
		t.Fatalf("MAE grad = %v", grad.Data)
	}
}

func TestHuberLimits(t *testing.T) {
	// Small errors: quadratic (like 0.5*MSE); large errors: linear.
	pred := tensor.FromSlice([]float64{0.1, 10}, 1, 2)
	targ := tensor.FromSlice([]float64{0, 0}, 1, 2)
	grad := tensor.New(1, 2)
	l := Huber{Delta: 1}.ForwardShard(pred, targ, grad, pred.Rows())
	want := (0.5*0.01 + 1*(10-0.5)) / 2
	if math.Abs(l-want) > 1e-12 {
		t.Fatalf("Huber = %v, want %v", l, want)
	}
}

func TestPhysicsMSEPenalizesDivergenceMismatch(t *testing.T) {
	// Prediction differing from the target by a constant offset has the
	// same divergence: only the mean penalty reacts. A sawtooth
	// perturbation changes the divergence: the div penalty reacts.
	cols := 8
	targ := tensor.New(1, cols)
	constOff := tensor.New(1, cols)
	for j := range constOff.Data {
		constOff.Data[j] = 0.5
	}
	saw := tensor.New(1, cols)
	for j := 0; j < cols; j++ {
		// Period-4 square wave: the period-2 (Nyquist) sawtooth is in the
		// null space of the centered difference, so use period 4 to get a
		// non-zero divergence mismatch.
		saw.Data[j] = 0.5 * float64((j/2)%2)
	}
	grad := tensor.New(1, cols)
	divOnly := PhysicsMSE{Dx: 0.1, LambdaDiv: 1, LambdaMean: 0}
	base := MSE{}
	lConstP := divOnly.ForwardShard(constOff, targ, grad, constOff.Rows())
	lConstM := base.ForwardShard(constOff, targ, grad, constOff.Rows())
	if math.Abs(lConstP-lConstM) > 1e-12 {
		t.Fatalf("constant offset should add no divergence penalty: %v vs %v", lConstP, lConstM)
	}
	lSawP := divOnly.ForwardShard(saw, targ, grad, saw.Rows())
	lSawM := base.ForwardShard(saw, targ, grad, saw.Rows())
	if lSawP <= lSawM {
		t.Fatalf("sawtooth should be penalized: physics %v <= mse %v", lSawP, lSawM)
	}
	meanOnly := PhysicsMSE{Dx: 0.1, LambdaDiv: 0, LambdaMean: 1}
	lMean := meanOnly.ForwardShard(constOff, targ, grad, constOff.Rows())
	if lMean <= lConstM {
		t.Fatalf("mean penalty missing: %v <= %v", lMean, lConstM)
	}
}

// ---------------------------------------------------------------------------
// Optimizers

func TestOptimizersMinimizeQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 using each optimizer through the
	// Param interface.
	target := []float64{1, -2, 3}
	run := func(opt Optimizer, iters int) float64 {
		w := tensor.FromSlice([]float64{0, 0, 0}, 1, 3)
		g := tensor.New(1, 3)
		p := []*Param{{W: w, G: g}}
		for i := 0; i < iters; i++ {
			for j := range w.Data {
				g.Data[j] = 2 * (w.Data[j] - target[j])
			}
			opt.Step(p)
		}
		var dist float64
		for j := range w.Data {
			dist += math.Abs(w.Data[j] - target[j])
		}
		return dist
	}
	if d := run(NewAdam(0.1), 600); d > 1e-4 {
		t.Errorf("Adam residual %v", d)
	}
}

func TestAdamDefaultLR(t *testing.T) {
	a := NewAdam(0)
	if a.LR != 1e-4 {
		t.Fatalf("default Adam lr %v, want 1e-4 (paper)", a.LR)
	}
}

func TestClipGradNorm(t *testing.T) {
	g := tensor.FromSlice([]float64{3, 4}, 1, 2) // norm 5
	p := []*Param{{W: tensor.New(1, 2), G: g}}
	norm := ClipGradNorm(p, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	if math.Abs(g.Data[0]-0.6) > 1e-12 || math.Abs(g.Data[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grad %v", g.Data)
	}
	// No-op below threshold.
	ClipGradNorm(p, 10)
	if math.Abs(g.Data[0]-0.6) > 1e-12 {
		t.Fatal("clip should be a no-op below threshold")
	}
}

// ---------------------------------------------------------------------------
// Training

// The MLP learns a random linear map comfortably: loss decreases by
// orders of magnitude and validation MAE is small.
func TestFitLearnsLinearMap(t *testing.T) {
	r := rng.New(20)
	inDim, outDim, n := 8, 4, 256
	w := tensor.New(inDim, outDim)
	w.RandomNormal(r, 1)
	x := randBatch(r, n, inDim)
	y := tensor.New(n, outDim)
	tensor.MatMul(y, x, w, false, false)
	xv := randBatch(r, 64, inDim)
	yv := tensor.New(64, outDim)
	tensor.MatMul(yv, xv, w, false, false)

	net, err := NewMLP(MLPConfig{InDim: inDim, OutDim: outDim, Hidden: 32, HiddenLayers: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Fit(net, x, y, xv, yv, TrainConfig{
		Epochs: 400, BatchSize: 32, Optimizer: NewAdam(3e-3), Loss: MSE{}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.Epochs[0], hist.Final()
	if last.TrainLoss > first.TrainLoss/100 {
		t.Fatalf("loss barely improved: %v -> %v", first.TrainLoss, last.TrainLoss)
	}
	// Judge the validation MAE relative to the target scale (a ReLU MLP
	// approximates an unbounded linear map only to a few percent).
	var meanAbsY float64
	for _, v := range yv.Data {
		meanAbsY += math.Abs(v)
	}
	meanAbsY /= float64(yv.Len())
	if last.ValMAE/meanAbsY > 0.10 {
		t.Fatalf("validation MAE %v (%.1f%% of target scale %v) too high",
			last.ValMAE, 100*last.ValMAE/meanAbsY, meanAbsY)
	}
}

func TestFitValidation(t *testing.T) {
	r := rng.New(21)
	net, _ := NewNetwork(2, NewDense(2, 1, r))
	x := randBatch(r, 8, 2)
	y := randBatch(r, 8, 1)
	bad := []TrainConfig{
		{Epochs: 0, BatchSize: 4, Optimizer: NewAdam(0.1), Loss: MSE{}},
		{Epochs: 1, BatchSize: 0, Optimizer: NewAdam(0.1), Loss: MSE{}},
		{Epochs: 1, BatchSize: 4, Loss: MSE{}},
		{Epochs: 1, BatchSize: 4, Optimizer: NewAdam(0.1)},
	}
	for i, cfg := range bad {
		if _, err := Fit(net, x, y, nil, nil, cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	// Mismatched sample counts.
	if _, err := Fit(net, x, randBatch(r, 7, 1), nil, nil,
		TrainConfig{Epochs: 1, BatchSize: 4, Optimizer: NewAdam(0.1), Loss: MSE{}}); err == nil {
		t.Error("sample mismatch should fail")
	}
	// Val set half-specified.
	if _, err := Fit(net, x, y, x, nil,
		TrainConfig{Epochs: 1, BatchSize: 4, Optimizer: NewAdam(0.1), Loss: MSE{}}); err == nil {
		t.Error("half validation set should fail")
	}
}

func TestFitDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		r := rng.New(22)
		net, _ := NewMLP(MLPConfig{InDim: 4, OutDim: 2, Hidden: 8, HiddenLayers: 1}, r)
		x := randBatch(r, 64, 4)
		y := randBatch(r, 64, 2)
		hist, err := Fit(net, x, y, nil, nil, TrainConfig{
			Epochs: 5, BatchSize: 16, Optimizer: NewAdam(1e-3), Loss: MSE{}, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return hist.Final().TrainLoss
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	r := rng.New(23)
	net, _ := NewNetwork(2, NewDense(2, 2, r))
	// Identity network: W = I, b = 0.
	d := net.Layers[0].(*Dense)
	d.W.Zero()
	d.W.Row(0)[0] = 1
	d.W.Row(1)[1] = 1
	d.B.Zero()
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := tensor.FromSlice([]float64{1, 2, 3, 5}, 2, 2) // one error of 1
	m := Evaluate(net, x, y, 64)
	if math.Abs(m.MAE-0.25) > 1e-12 {
		t.Errorf("MAE %v, want 0.25", m.MAE)
	}
	if math.Abs(m.MaxErr-1) > 1e-12 {
		t.Errorf("MaxErr %v, want 1", m.MaxErr)
	}
	if m.N != 2 {
		t.Errorf("N = %d", m.N)
	}
	// Ragged final batch path.
	x3 := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	y3 := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	if m3 := Evaluate(net, x3, y3, 2); m3.MAE != 0 || m3.N != 3 {
		t.Errorf("ragged batch metrics %+v", m3)
	}
}

// ---------------------------------------------------------------------------
// Serialization

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(24)
	arch := []struct {
		name string
		make func() (*Network, error)
	}{
		{"mlp", func() (*Network, error) {
			return NewMLP(MLPConfig{InDim: 6, OutDim: 3, Hidden: 8, HiddenLayers: 2}, r)
		}},
		{"cnn", func() (*Network, error) {
			return NewCNN(CNNConfig{H: 8, W: 8, OutDim: 4, Channels1: 2, Channels2: 2,
				Kernel: 3, Hidden: 8, HiddenLayers: 1}, r)
		}},
		{"resmlp", func() (*Network, error) {
			return NewResMLP(ResMLPConfig{InDim: 6, OutDim: 3, Hidden: 8, Blocks: 1}, r)
		}},
	}
	for _, a := range arch {
		net, err := a.make()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		var buf bytes.Buffer
		if err := Save(net, &buf); err != nil {
			t.Fatalf("%s save: %v", a.name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s load: %v", a.name, err)
		}
		in := make([]float64, net.InDim)
		for i := range in {
			in[i] = r.NormFloat64()
		}
		out1 := make([]float64, net.OutDim())
		out2 := make([]float64, net.OutDim())
		net.Predict1(in, out1)
		loaded.Predict1(in, out2)
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("%s: loaded model differs at output %d: %v vs %v", a.name, i, out1[i], out2[i])
			}
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage should fail to load")
	}
}

func TestSummary(t *testing.T) {
	r := rng.New(26)
	net, _ := NewMLP(MLPConfig{InDim: 4, OutDim: 2, Hidden: 8, HiddenLayers: 1}, r)
	s := net.Summary()
	if s == "" || len(s) < 10 {
		t.Fatalf("summary too short: %q", s)
	}
}

// The paper-shaped MLP (reduced width) learns the histogram->field task
// structure: a linear map with smoothing. This is the mini end-to-end
// sanity check for the Table-I pipeline.
func TestMLPLearnsSmoothedLinearTask(t *testing.T) {
	r := rng.New(27)
	inDim, outDim := 32, 8
	n := 512
	// Target: y = smooth(Ax) with fixed random A — loosely mimics
	// histogram -> field (linear solve of the binned density).
	a := tensor.New(inDim, outDim)
	a.RandomNormal(r, 0.3)
	x := tensor.New(n, inDim)
	for i := range x.Data {
		x.Data[i] = r.Float64() // histogram-like: non-negative
	}
	y := tensor.New(n, outDim)
	tensor.MatMul(y, x, a, false, false)
	net, err := NewMLP(MLPConfig{InDim: inDim, OutDim: outDim, Hidden: 64, HiddenLayers: 3}, r)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Fit(net, x, y, x, y, TrainConfig{
		Epochs: 60, BatchSize: 64, Optimizer: NewAdam(1e-3), Loss: MSE{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Final().ValMAE > 0.2 {
		t.Fatalf("paper-shaped MLP failed to learn: val MAE %v", hist.Final().ValMAE)
	}
}
