// Package nn is a from-scratch, stdlib-only neural-network framework
// sufficient to express and train the paper's two architectures — the
// MLP (3 fully connected ReLU layers of 1024 units, 64-unit linear
// output) and the CNN (two blocks of [conv, conv, maxpool] followed by
// the same fully connected stack) — plus the residual-MLP and
// physics-informed-loss extensions the paper's discussion proposes.
//
// It substitutes for TensorFlow/Keras in the original work (the "no
// mature DL training stack in Go" gate): layers implement explicit
// forward/backward passes over batched row-major tensors, the optimizer
// is the paper's Adam, and every gradient is property-tested against
// finite differences.
//
// Layout conventions: a batch is a 2D tensor [batchSize, features].
// Convolutional layers interpret the feature axis as C*H*W (channel
// major) and are constructed with explicit input dimensions, so no
// separate Flatten layer is needed.
package nn

import (
	"fmt"
	"math"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the batch output. The returned tensor is owned by
	// the layer and valid until the next Forward call.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), writing
	// this pass's parameter gradients (overwriting the previous
	// pass's — callers that need accumulation across passes sum the
	// gradients externally, as the sharded trainer's ordered fold
	// does). Must be called after Forward with the matching batch.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (empty for stateless
	// layers).
	Params() []*Param
	// OutDim returns the per-sample output width given the input width,
	// or an error if the input width is incompatible.
	OutDim(in int) (int, error)
	// Name identifies the layer type and size.
	Name() string
}

// ---------------------------------------------------------------------------
// Dense

// Dense is a fully connected layer: y = x W + b.
type Dense struct {
	InDim, OutDim_ int
	W              *tensor.Tensor // [InDim, OutDim]
	B              *tensor.Tensor // [1, OutDim]
	dW, dB         *tensor.Tensor

	x   *tensor.Tensor // cached input (reference, not copy)
	out *tensor.Tensor
	dx  *tensor.Tensor
}

// NewDense constructs a dense layer with He-uniform initialization
// (appropriate for the ReLU stacks of the paper's MLP).
func NewDense(inDim, outDim int, r *rng.Source) *Dense {
	d := newDense(inDim, outDim)
	limit := math.Sqrt(6.0 / float64(inDim))
	d.W.RandomUniform(r, limit)
	return d
}

// newDense allocates a dense layer with all-zero weights: what the
// loader and Clone fill with saved weights, and what NewDense
// initializes.
func newDense(inDim, outDim int) *Dense {
	if inDim <= 0 || outDim <= 0 {
		panic(fmt.Sprintf("nn: invalid dense dims %dx%d", inDim, outDim))
	}
	return &Dense{
		InDim: inDim, OutDim_: outDim,
		W:  tensor.New(inDim, outDim),
		B:  tensor.New(1, outDim),
		dW: tensor.New(inDim, outDim),
		dB: tensor.New(1, outDim),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%dx%d)", d.InDim, d.OutDim_) }

// OutDim implements Layer.
func (d *Dense) OutDim(in int) (int, error) {
	if in != d.InDim {
		return 0, fmt.Errorf("nn: dense expects input width %d, got %d", d.InDim, in)
	}
	return d.OutDim_, nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param {
	return []*Param{
		{Name: d.Name() + ".W", W: d.W, G: d.dW},
		{Name: d.Name() + ".b", W: d.B, G: d.dB},
	}
}

// ensure2D returns a [rows, cols] scratch tensor, reusing buf's
// backing storage grow-only: shrinking the row count (batched inference
// flushes fluctuate with pool timing) reslices in place instead of
// reallocating. Callers fully overwrite the contents every use.
func ensure2D(buf **tensor.Tensor, rows, cols int) *tensor.Tensor {
	t := *buf
	if t == nil || t.Shape[1] != cols || cap(t.Data) < rows*cols {
		*buf = tensor.New(rows, cols)
		return *buf
	}
	if t.Shape[0] != rows {
		t.Shape[0] = rows
		t.Data = t.Data[:rows*cols]
	}
	return t
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Cols() != d.InDim {
		panic(fmt.Sprintf("nn: %s got input width %d", d.Name(), x.Cols()))
	}
	d.x = x
	out := ensure2D(&d.out, x.Rows(), d.OutDim_)
	tensor.MatMul(out, x, d.W, false, false)
	tensor.AddRowVector(out, d.B.Data)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	d.backwardParamsOnly(dy)
	dx := ensure2D(&d.dx, dy.Rows(), d.InDim)
	tensor.MatMul(dx, dy, d.W, false, true)
	return dx
}

// backwardParamsOnly computes dW = x^T dy and db = column sums of dy
// without forming dL/d(input) — the input-gradient GEMM streams W once
// more, pure waste when this is a network's first layer (see
// Network.backwardTrain). Gradients are written, not accumulated (see
// the Layer contract), so no scratch product tensor and no pre-zeroing
// of the gradient buffers is needed.
func (d *Dense) backwardParamsOnly(dy *tensor.Tensor) {
	if d.x == nil {
		panic("nn: dense Backward before Forward")
	}
	tensor.MatMul(d.dW, d.x, dy, true, false)
	tensor.SumRows(d.dB.Data, dy)
}

// ---------------------------------------------------------------------------
// ReLU

// ReLU is the elementwise rectifier.
type ReLU struct {
	mask []bool
	out  *tensor.Tensor
	dx   *tensor.Tensor
}

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutDim implements Layer.
func (r *ReLU) OutDim(in int) (int, error) { return in, nil }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := ensure2D(&r.out, x.Rows(), x.Cols())
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			r.mask[i] = true
		} else {
			out.Data[i] = 0
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure2D(&r.dx, dy.Rows(), dy.Cols())
	for i, v := range dy.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// Residual dense block (paper §VII extension: "networks fit to encode
// time sequences, such as Residual networks, might be a better fit")

// Residual wraps two dense+ReLU stages with an identity skip:
// y = x + W2 relu(W1 x + b1) + b2, requiring equal in/out width.
type Residual struct {
	dim    int
	d1, d2 *Dense
	act    *ReLU
	out    *tensor.Tensor
	dx     *tensor.Tensor
}

// NewResidual constructs a width-preserving residual block.
func NewResidual(dim int, r *rng.Source) *Residual {
	return &Residual{dim: dim, d1: NewDense(dim, dim, r), d2: NewDense(dim, dim, r), act: NewReLU()}
}

// newResidual is NewResidual with all-zero weights (see newDense).
func newResidual(dim int) *Residual {
	return &Residual{dim: dim, d1: newDense(dim, dim), d2: newDense(dim, dim), act: NewReLU()}
}

// Name implements Layer.
func (b *Residual) Name() string { return fmt.Sprintf("residual(%d)", b.dim) }

// OutDim implements Layer.
func (b *Residual) OutDim(in int) (int, error) {
	if in != b.dim {
		return 0, fmt.Errorf("nn: residual expects width %d, got %d", b.dim, in)
	}
	return b.dim, nil
}

// Params implements Layer.
func (b *Residual) Params() []*Param {
	return append(b.d1.Params(), b.d2.Params()...)
}

// Forward implements Layer.
func (b *Residual) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := b.act.Forward(b.d1.Forward(x))
	y := b.d2.Forward(h)
	out := ensure2D(&b.out, x.Rows(), x.Cols())
	tensor.Add(out, x, y)
	return out
}

// Backward implements Layer.
func (b *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dBranch := b.d1.Backward(b.act.Backward(b.d2.Backward(dy)))
	dx := ensure2D(&b.dx, dy.Rows(), dy.Cols())
	tensor.Add(dx, dy, dBranch)
	return dx
}
