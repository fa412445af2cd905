package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// Rectangular (non-square) images through conv and pool: the paper's
// phase-space histograms are square, but the layers must not assume it.
func TestConvRectangularImage(t *testing.T) {
	r := rng.New(31)
	net, err := NewNetwork(2*6*10,
		NewConv2D(2, 6, 10, 3, 3, r), NewReLU(),
		NewMaxPool2D(3, 6, 10),
		NewDense(3*3*5, 4, r))
	if err != nil {
		t.Fatal(err)
	}
	gradCheckNet(t, net, 2*6*10, 4, 32)
}

func TestCNNRequiresDivisibleBy4(t *testing.T) {
	if _, err := NewCNN(CNNConfig{H: 6, W: 8, OutDim: 4, Channels1: 2, Channels2: 2,
		Hidden: 8, HiddenLayers: 1}, rng.New(1)); err == nil {
		t.Fatal("H=6 should be rejected (two pooling stages)")
	}
}

func TestConvKernelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even kernel size should panic")
		}
	}()
	NewConv2D(1, 4, 4, 1, 2, rng.New(1))
}

func TestMaxPoolOddDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd pooling dims should panic")
		}
	}()
	NewMaxPool2D(1, 3, 4)
}

func TestPredict1CNNPath(t *testing.T) {
	r := rng.New(33)
	net, err := NewCNN(CNNConfig{H: 8, W: 8, OutDim: 4, Channels1: 2, Channels2: 2,
		Kernel: 3, Hidden: 8, HiddenLayers: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 64)
	for i := range in {
		in[i] = r.Float64()
	}
	out := make([]float64, 4)
	net.Predict1(in, out)
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("CNN Predict1 produced NaN")
		}
	}
	// Batch forward agrees.
	x := tensor.FromSlice(append([]float64(nil), in...), 1, 64)
	ref := net.Forward(x)
	for i := range out {
		if math.Abs(out[i]-ref.Data[i]) > 1e-14 {
			t.Fatalf("Predict1 CNN mismatch at %d", i)
		}
	}
}

func TestFitWithClipNorm(t *testing.T) {
	r := rng.New(34)
	net, _ := NewMLP(MLPConfig{InDim: 4, OutDim: 2, Hidden: 8, HiddenLayers: 1}, r)
	x := randBatch(r, 32, 4)
	y := randBatch(r, 32, 2)
	y.Scale(100) // large targets force large early gradients
	hist, err := Fit(net, x, y, nil, nil, TrainConfig{
		Epochs: 10, BatchSize: 16, Optimizer: NewAdam(1e-2), Loss: MSE{},
		ClipNorm: 1.0, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hist.Epochs {
		if math.IsNaN(e.TrainLoss) || math.IsInf(e.TrainLoss, 0) {
			t.Fatal("clipped training produced non-finite loss")
		}
	}
}

func TestFitLogOutput(t *testing.T) {
	r := rng.New(35)
	net, _ := NewMLP(MLPConfig{InDim: 4, OutDim: 2, Hidden: 4, HiddenLayers: 1}, r)
	x := randBatch(r, 16, 4)
	y := randBatch(r, 16, 2)
	var sb strings.Builder
	_, err := Fit(net, x, y, x, y, TrainConfig{
		Epochs: 4, BatchSize: 8, Optimizer: NewAdam(1e-3), Loss: MSE{},
		Log: &sb, LogEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "epoch") != 2 {
		t.Fatalf("LogEvery=2 over 4 epochs should log twice, got: %q", out)
	}
	if !strings.Contains(out, "val MAE") {
		t.Fatalf("validation metrics missing from log: %q", out)
	}
}

func TestFitNonFiniteLossAborts(t *testing.T) {
	r := rng.New(36)
	net, _ := NewMLP(MLPConfig{InDim: 2, OutDim: 1, Hidden: 4, HiddenLayers: 1}, r)
	x := randBatch(r, 8, 2)
	y := randBatch(r, 8, 1)
	// Poison an *output-layer* weight: a NaN in a hidden layer would be
	// swallowed by ReLU (NaN > 0 is false), so the rectifier itself is a
	// NaN firewall — the output layer is the exposed surface.
	params := net.Params()
	params[len(params)-2].W.Data[0] = math.NaN()
	for i := range x.Data {
		x.Data[i] = 1 // ensure the poisoned weight is touched
	}
	_, err := Fit(net, x, y, nil, nil, TrainConfig{
		Epochs: 2, BatchSize: 4, Optimizer: NewAdam(1e-3), Loss: MSE{},
	})
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("expected non-finite loss error, got %v", err)
	}
}

func TestHistoryFinalEmpty(t *testing.T) {
	var h History
	if f := h.Final(); f.Epoch != 0 || f.TrainLoss != 0 {
		t.Fatalf("empty history Final = %+v", f)
	}
}

func TestSaveRejectsUnknownLayer(t *testing.T) {
	// A network smuggled an unserializable layer: Save must fail cleanly.
	net := &Network{InDim: 2, Layers: []Layer{fakeLayer{}}}
	var buf bytes.Buffer
	if err := Save(net, &buf); err == nil {
		t.Fatal("unknown layer should fail to serialize")
	}
}

// TestLoadRejectsHostileHeader: a model file's layer dimensions are
// outside input. Load must answer a header that does not match its
// payload with an error before allocating from it — {1<<20, 1<<20}
// used to take the process down with an out-of-memory fatal error, and
// {-1, 4} panicked in newDense.
func TestLoadRejectsHostileHeader(t *testing.T) {
	cases := []struct {
		name  string
		inDim int
		spec  layerSpec
	}{
		{"dense huge", 1 << 20, layerSpec{Kind: "dense", Ints: []int{1 << 20, 1 << 20}}},
		{"dense negative", 4, layerSpec{Kind: "dense", Ints: []int{-1, 4}}},
		{"dense overflow", 4, layerSpec{Kind: "dense", Ints: []int{1 << 32, 1 << 32}}},
		{"dense short payload", 2, layerSpec{Kind: "dense", Ints: []int{2, 2}, W: make([]float64, 3), B: make([]float64, 2)}},
		{"conv huge", 1 << 32, layerSpec{Kind: "conv2d", Ints: []int{1 << 20, 64, 64, 1 << 20, 3}}},
		{"conv even kernel", 16, layerSpec{Kind: "conv2d", Ints: []int{1, 4, 4, 1, 2}, W: make([]float64, 4), B: make([]float64, 1)}},
		{"conv zero channels", 16, layerSpec{Kind: "conv2d", Ints: []int{0, 4, 4, 1, 3}}},
		{"maxpool odd", 9, layerSpec{Kind: "maxpool2d", Ints: []int{1, 3, 3}}},
		{"maxpool overflow", 4, layerSpec{Kind: "maxpool2d", Ints: []int{1<<62 + 1, 2, 2}}},
		{"residual huge", 1 << 20, layerSpec{Kind: "residual", Ints: []int{1 << 20}}},
		{"residual overflow", 1 << 31, layerSpec{Kind: "residual", Ints: []int{1 << 31}}},
		{"residual negative", 4, layerSpec{Kind: "residual", Ints: []int{-4}}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		file := netFile{Version: fileVersion, InDim: c.inDim, Layers: []layerSpec{c.spec}}
		if err := gob.NewEncoder(&buf).Encode(file); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted %v", c.name, c.spec.Ints)
		}
	}
}

type fakeLayer struct{}

func (fakeLayer) Forward(x *tensor.Tensor) *tensor.Tensor   { return x }
func (fakeLayer) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }
func (fakeLayer) Params() []*Param                          { return nil }
func (fakeLayer) OutDim(in int) (int, error)                { return in, nil }
func (fakeLayer) Name() string                              { return "fake" }

func TestEvaluateEmptyBatchSizeDefaults(t *testing.T) {
	r := rng.New(37)
	net, _ := NewNetwork(2, NewDense(2, 2, r))
	x := randBatch(r, 5, 2)
	y := randBatch(r, 5, 2)
	m := Evaluate(net, x, y, 0) // 0 -> default batch
	if m.N != 5 {
		t.Fatalf("N = %d", m.N)
	}
}

// Training is architecture-agnostic: the ResMLP trains on the same task
// through the same loop.
func TestResMLPTrains(t *testing.T) {
	r := rng.New(38)
	net, err := NewResMLP(ResMLPConfig{InDim: 8, OutDim: 4, Hidden: 16, Blocks: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(r, 64, 8)
	w := tensor.New(8, 4)
	w.RandomNormal(r, 0.5)
	y := tensor.New(64, 4)
	tensor.MatMul(y, x, w, false, false)
	hist, err := Fit(net, x, y, nil, nil, TrainConfig{
		Epochs: 40, BatchSize: 16, Optimizer: NewAdam(2e-3), Loss: MSE{}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Final().TrainLoss > hist.Epochs[0].TrainLoss/10 {
		t.Fatalf("ResMLP barely trained: %v -> %v",
			hist.Epochs[0].TrainLoss, hist.Final().TrainLoss)
	}
}
