// Package tensor provides the dense numerical arrays and the matrix
// kernels that power the neural-network framework (internal/nn).
//
// Tensors are row-major float64 with an explicit shape. The hot kernel is
// MatMul, a cache-blocked, goroutine-parallel GEMM with optional operand
// transposes — enough to express dense layers, im2col convolutions and
// all their gradients. Everything is deterministic: parallel partitions
// write disjoint output rows, so no reduction order ambiguity exists.
package tensor

import (
	"fmt"

	"dlpic/internal/parallel"
	"dlpic/internal/rng"
)

// Tensor is a dense row-major array with shape metadata.
type Tensor struct {
	// Shape holds the extent of each dimension; Data has length
	// prod(Shape).
	Shape []int
	Data  []float64
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows and Cols are the 2D accessors (panic unless the tensor is 2D).
func (t *Tensor) Rows() int { t.want2D(); return t.Shape[0] }

// Cols returns the second dimension of a 2D tensor.
func (t *Tensor) Cols() int { t.want2D(); return t.Shape[1] }

func (t *Tensor) want2D() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2D tensor, have shape %v", t.Shape))
	}
}

// Row returns a view of row i of a 2D tensor.
func (t *Tensor) Row(i int) []float64 {
	t.want2D()
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: append([]float64(nil), t.Data...)}
}

// Zero clears the tensor in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// RandomNormal fills the tensor with N(0, std) variates.
func (t *Tensor) RandomNormal(r *rng.Source, std float64) {
	for i := range t.Data {
		t.Data[i] = std * r.NormFloat64()
	}
}

// RandomUniform fills the tensor with U(-limit, limit) variates.
func (t *Tensor) RandomUniform(r *rng.Source, limit float64) {
	for i := range t.Data {
		t.Data[i] = (2*r.Float64() - 1) * limit
	}
}

// ---------------------------------------------------------------------------
// Elementwise and reduction kernels

// Add computes dst = a + b elementwise (equal sizes required).
func Add(dst, a, b *Tensor) {
	checkSameLen("Add", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Scale multiplies the tensor by alpha in place.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// AddRowVector adds the 1D vector v to every row of the 2D tensor t
// (bias broadcast).
func AddRowVector(t *Tensor, v []float64) {
	t.want2D()
	if len(v) != t.Shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector length %d, cols %d", len(v), t.Shape[1]))
	}
	rows, cols := t.Shape[0], t.Shape[1]
	for i := 0; i < rows; i++ {
		row := t.Data[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += v[j]
		}
	}
}

// SumRows writes the column sums of the 2D tensor into out (length cols):
// out[j] = sum_i t[i][j]. Used for bias gradients. The column range is
// split across workers; every element keeps the full i-ascending
// accumulation chain, so the result is bit-identical to the serial loop
// at any GOMAXPROCS.
func SumRows(out []float64, t *Tensor) {
	t.want2D()
	rows, cols := t.Shape[0], t.Shape[1]
	if len(out) != cols {
		panic(fmt.Sprintf("tensor: SumRows out length %d, cols %d", len(out), cols))
	}
	parallel.ForThreshold(cols, 512, func(js, je int) {
		for j := js; j < je; j++ {
			out[j] = 0
		}
		for i := 0; i < rows; i++ {
			row := t.Data[i*cols : (i+1)*cols]
			for j := js; j < je; j++ {
				out[j] += row[j]
			}
		}
	})
}

// GatherRows copies src row idx[i] into dst row i for every i, in
// parallel over destination rows (disjoint writes, so the copy is
// trivially deterministic). It is the batched gather the training loop
// uses to materialize a shuffled minibatch from the corpus.
func GatherRows(dst, src *Tensor, idx []int) {
	dst.want2D()
	src.want2D()
	if dst.Shape[1] != src.Shape[1] {
		panic(fmt.Sprintf("tensor: GatherRows width mismatch dst=%d src=%d", dst.Shape[1], src.Shape[1]))
	}
	if dst.Shape[0] != len(idx) {
		panic(fmt.Sprintf("tensor: GatherRows dst rows %d, idx length %d", dst.Shape[0], len(idx)))
	}
	parallel.ForThreshold(len(idx), 64, func(start, end int) {
		for i := start; i < end; i++ {
			copy(dst.Row(i), src.Row(idx[i]))
		}
	})
}

func checkSameLen(op string, ts ...*Tensor) {
	n := ts[0].Len()
	for _, t := range ts[1:] {
		if t.Len() != n {
			panic(fmt.Sprintf("tensor: %s size mismatch %d vs %d", op, n, t.Len()))
		}
	}
}

// ---------------------------------------------------------------------------
// GEMM

// MatMul computes dst = op(a) * op(b) where op optionally transposes:
// op(a) is a if !transA else a^T. All tensors must be 2D with consistent
// shapes; dst may not alias a or b. The kernels are cache-blocked and
// register-tiled (gemm.go) but bit-identical to the reference loops in
// ref_test.go, element by element, at any GOMAXPROCS.
func MatMul(dst, a, b *Tensor, transA, transB bool) {
	matMul(dst, a, b, transA, transB, false)
}

// MatMulAcc computes dst += op(a) * op(b): the same kernels as MatMul
// without the initial zeroing of dst, so parameter-gradient
// accumulation (dW += x^T dy) needs no scratch product tensor. Each
// output element continues its k-ascending accumulation chain from
// dst's current value; accumulating into a zeroed dst is therefore
// bit-identical to MatMul.
func MatMulAcc(dst, a, b *Tensor, transA, transB bool) {
	matMul(dst, a, b, transA, transB, true)
}

func matMul(dst, a, b *Tensor, transA, transB, acc bool) {
	checkMatMul(dst, a, b, transA, transB)
	switch {
	case !transA && !transB:
		matMulNN(dst, a, b, acc)
	case !transA && transB:
		matMulNT(dst, a, b, acc)
	case transA && !transB:
		matMulTN(dst, a, b, acc)
	default:
		matMulTT(dst, a, b, acc)
	}
}

// checkMatMul validates the shapes and aliasing of one GEMM call;
// shared by the tiled dispatcher and the reference kernels.
func checkMatMul(dst, a, b *Tensor, transA, transB bool) {
	dst.want2D()
	a.want2D()
	b.want2D()
	am, ak := a.Shape[0], a.Shape[1]
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.Shape[0], b.Shape[1]
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d (transA=%v transB=%v)", ak, bk, transA, transB))
	}
	if dst.Shape[0] != am || dst.Shape[1] != bn {
		panic(fmt.Sprintf("tensor: MatMul dst shape %v, want [%d %d]", dst.Shape, am, bn))
	}
	// New rejects zero dims so the slices are non-empty today; the
	// length guard keeps the alias probe from panicking on empty data
	// if a future constructor relaxes that.
	if len(dst.Data) > 0 && len(a.Data) > 0 && len(b.Data) > 0 &&
		(&dst.Data[0] == &a.Data[0] || &dst.Data[0] == &b.Data[0]) {
		panic("tensor: MatMul dst aliases an operand")
	}
}
