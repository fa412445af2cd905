package nn

import (
	"fmt"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer
	// InDim is the expected per-sample input width.
	InDim int

	in1 *tensor.Tensor // batch-1 scratch for Predict1
	inB *tensor.Tensor // batched scratch for PredictBatch
}

// NewNetwork validates that the layer widths chain correctly from inDim
// and returns the container.
func NewNetwork(inDim int, layers ...Layer) (*Network, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("nn: network input width %d invalid", inDim)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network needs at least one layer")
	}
	w := inDim
	for i, l := range layers {
		var err error
		w, err = l.OutDim(w)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return &Network{Layers: layers, InDim: inDim}, nil
}

// OutDim returns the per-sample output width.
func (n *Network) OutDim() int {
	w := n.InDim
	for _, l := range n.Layers {
		w, _ = l.OutDim(w)
	}
	return w
}

// Forward runs the batch through every layer.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dL/d(output) to dL/d(input), writing this pass's
// parameter gradients in every layer (see the Layer contract:
// gradients are overwritten, not accumulated across passes).
func (n *Network) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy)
	}
	return dy
}

// inputGradFree is implemented by layers that can compute their
// parameter gradients without forming dL/d(input). The first layer of
// a network has no upstream consumer for its input gradient, so the
// trainer skips it — for the paper's MLP that avoids one extra stream
// of the widest weight matrix (the 4096-column input projection) per
// backward pass.
type inputGradFree interface {
	backwardParamsOnly(dy *tensor.Tensor)
}

// backwardTrain is Backward minus the first layer's input gradient,
// which no trainer consumes. Parameter gradients are bit-identical to
// Backward's.
func (n *Network) backwardTrain(dy *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 1; i-- {
		dy = n.Layers[i].Backward(dy)
	}
	if pg, ok := n.Layers[0].(inputGradFree); ok {
		pg.backwardParamsOnly(dy)
		return
	}
	n.Layers[0].Backward(dy)
}

// Params returns all trainable parameters.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total trainable scalar count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// Predict1 evaluates the network on a single sample, writing the result
// into out (which must have length OutDim()). It reuses an internal
// batch-1 tensor, so it is allocation-light in steady state — this is
// the path the DL-PIC simulation loop calls every time step.
func (n *Network) Predict1(in, out []float64) {
	if len(in) != n.InDim {
		panic(fmt.Sprintf("nn: Predict1 input length %d, want %d", len(in), n.InDim))
	}
	if n.in1 == nil {
		n.in1 = tensor.New(1, n.InDim)
	}
	copy(n.in1.Data, in)
	y := n.Forward(n.in1)
	if len(out) != y.Cols() {
		panic(fmt.Sprintf("nn: Predict1 output length %d, want %d", len(out), y.Cols()))
	}
	copy(out, y.Data)
}

// PredictBatch evaluates the network on batch stacked samples: in holds
// batch rows of InDim values back to back, and the corresponding rows
// of OutDim() outputs are written to out in the same order. One Forward
// pass services the whole stack, so each layer's weight matrix is
// streamed once per batch instead of once per sample (see the k-outer
// GEMM in internal/tensor) — the primitive the internal/batch inference
// server uses to amortize the DL field solve across concurrent
// simulations.
//
// Row r of the result is bit-identical to Predict1 on row r: every
// layer computes output rows independently from the matching input row
// with the same per-element operation order, so batching — at any
// batch size and in any row order — never changes a sample's result.
// Like Predict1 it reuses an internal input tensor and is
// allocation-light in steady state for a fixed batch size.
func (n *Network) PredictBatch(batch int, in, out []float64) {
	if batch < 1 {
		panic(fmt.Sprintf("nn: PredictBatch batch %d, want >= 1", batch))
	}
	if len(in) != batch*n.InDim {
		panic(fmt.Sprintf("nn: PredictBatch input length %d, want %d x %d", len(in), batch, n.InDim))
	}
	if outDim := n.OutDim(); len(out) != batch*outDim {
		panic(fmt.Sprintf("nn: PredictBatch output length %d, want %d x %d", len(out), batch, outDim))
	}
	ensure2D(&n.inB, batch, n.InDim)
	copy(n.inB.Data, in)
	y := n.Forward(n.inB)
	copy(out, y.Data)
}

// Summary returns a human-readable architecture description.
func (n *Network) Summary() string {
	s := fmt.Sprintf("input(%d)", n.InDim)
	for _, l := range n.Layers {
		s += " -> " + l.Name()
	}
	s += fmt.Sprintf("  [%d params]", n.NumParams())
	return s
}

// ---------------------------------------------------------------------------
// Paper architectures

// MLPConfig sizes the paper's MLP: Hidden units per layer (paper: 1024),
// HiddenLayers count (paper: 3), input and output widths.
type MLPConfig struct {
	InDim, OutDim int
	Hidden        int
	HiddenLayers  int
}

// NewMLP builds the paper's §IV-A MLP: HiddenLayers fully connected ReLU
// layers of Hidden units and a linear output of OutDim units.
func NewMLP(cfg MLPConfig, r *rng.Source) (*Network, error) {
	if cfg.Hidden <= 0 || cfg.HiddenLayers <= 0 {
		return nil, fmt.Errorf("nn: invalid MLP config %+v", cfg)
	}
	var layers []Layer
	w := cfg.InDim
	for i := 0; i < cfg.HiddenLayers; i++ {
		layers = append(layers, NewDense(w, cfg.Hidden, r), NewReLU())
		w = cfg.Hidden
	}
	layers = append(layers, NewDense(w, cfg.OutDim, r))
	return NewNetwork(cfg.InDim, layers...)
}

// CNNConfig sizes the paper's CNN: two blocks of two same-padded
// convolutions followed by 2x2 max pooling, then the same dense stack as
// the MLP. The paper fixes the dense part (3x1024 ReLU + 64 linear) but
// not the channel counts; Channels1/Channels2 parameterize them.
type CNNConfig struct {
	H, W                 int // input image size (phase-space bins)
	OutDim               int
	Channels1, Channels2 int
	Kernel               int
	Hidden, HiddenLayers int
}

// NewCNN builds the paper's §IV-A CNN.
func NewCNN(cfg CNNConfig, r *rng.Source) (*Network, error) {
	if cfg.H%4 != 0 || cfg.W%4 != 0 {
		return nil, fmt.Errorf("nn: CNN input %dx%d must be divisible by 4 (two pooling stages)", cfg.H, cfg.W)
	}
	if cfg.Channels1 <= 0 || cfg.Channels2 <= 0 || cfg.Hidden <= 0 || cfg.HiddenLayers <= 0 {
		return nil, fmt.Errorf("nn: invalid CNN config %+v", cfg)
	}
	k := cfg.Kernel
	if k == 0 {
		k = 3
	}
	h, w := cfg.H, cfg.W
	var layers []Layer
	// Block 1.
	layers = append(layers,
		NewConv2D(1, h, w, cfg.Channels1, k, r), NewReLU(),
		NewConv2D(cfg.Channels1, h, w, cfg.Channels1, k, r), NewReLU(),
		NewMaxPool2D(cfg.Channels1, h, w),
	)
	h, w = h/2, w/2
	// Block 2.
	layers = append(layers,
		NewConv2D(cfg.Channels1, h, w, cfg.Channels2, k, r), NewReLU(),
		NewConv2D(cfg.Channels2, h, w, cfg.Channels2, k, r), NewReLU(),
		NewMaxPool2D(cfg.Channels2, h, w),
	)
	h, w = h/2, w/2
	// Dense stack.
	width := cfg.Channels2 * h * w
	for i := 0; i < cfg.HiddenLayers; i++ {
		layers = append(layers, NewDense(width, cfg.Hidden, r), NewReLU())
		width = cfg.Hidden
	}
	layers = append(layers, NewDense(width, cfg.OutDim, r))
	return NewNetwork(cfg.H*cfg.W, layers...)
}

// ResMLPConfig sizes the residual-MLP extension: an input projection,
// Blocks residual blocks, and a linear readout.
type ResMLPConfig struct {
	InDim, OutDim int
	Hidden        int
	Blocks        int
}

// NewResMLP builds the residual-MLP variant from the paper's discussion.
func NewResMLP(cfg ResMLPConfig, r *rng.Source) (*Network, error) {
	if cfg.Hidden <= 0 || cfg.Blocks <= 0 {
		return nil, fmt.Errorf("nn: invalid ResMLP config %+v", cfg)
	}
	layers := []Layer{NewDense(cfg.InDim, cfg.Hidden, r), NewReLU()}
	for i := 0; i < cfg.Blocks; i++ {
		layers = append(layers, NewResidual(cfg.Hidden, r))
	}
	layers = append(layers, NewDense(cfg.Hidden, cfg.OutDim, r))
	return NewNetwork(cfg.InDim, layers...)
}
