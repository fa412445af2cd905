package nn

import (
	"fmt"
	"math"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// Conv2D is a stride-1, same-padded 2D convolution over channel-major
// [C, H, W] features (flattened per sample). It is implemented with
// im2col + GEMM: each sample's receptive fields are unrolled into a
// column matrix and the kernel bank multiplies it in one MatMul, which
// is where the paper's observation that "the DL electric field solver is
// a series of matrix-vector multiplications" becomes literal.
type Conv2D struct {
	InC, H, W int // input channels and spatial size
	OutC, K   int // output channels, (odd) kernel size

	Wt     *tensor.Tensor // [OutC, InC*K*K]
	B      *tensor.Tensor // [1, OutC]
	dW, dB *tensor.Tensor

	x    *tensor.Tensor // cached input batch
	out  *tensor.Tensor
	dx   *tensor.Tensor
	cols *tensor.Tensor // [InC*K*K, H*W] im2col scratch (one sample)
	dcol *tensor.Tensor
}

// NewConv2D constructs a same-padded stride-1 convolution with
// He-uniform initialization. K must be odd.
func NewConv2D(inC, h, w, outC, k int, r *rng.Source) *Conv2D {
	c := newConv2D(inC, h, w, outC, k)
	fanIn := float64(inC * k * k)
	c.Wt.RandomUniform(r, math.Sqrt(6.0/fanIn))
	return c
}

// newConv2D is NewConv2D with an all-zero kernel bank (see newDense).
func newConv2D(inC, h, w, outC, k int) *Conv2D {
	if inC <= 0 || h <= 0 || w <= 0 || outC <= 0 {
		panic(fmt.Sprintf("nn: invalid conv dims inC=%d h=%d w=%d outC=%d", inC, h, w, outC))
	}
	if k <= 0 || k%2 == 0 {
		panic(fmt.Sprintf("nn: conv kernel size %d must be positive odd", k))
	}
	return &Conv2D{
		InC: inC, H: h, W: w, OutC: outC, K: k,
		Wt: tensor.New(outC, inC*k*k),
		B:  tensor.New(1, outC),
		dW: tensor.New(outC, inC*k*k),
		dB: tensor.New(1, outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv2d(%dx%dx%d->%d,k=%d)", c.InC, c.H, c.W, c.OutC, c.K)
}

// OutDim implements Layer.
func (c *Conv2D) OutDim(in int) (int, error) {
	if in != c.InC*c.H*c.W {
		return 0, fmt.Errorf("nn: conv expects input width %d (=%dx%dx%d), got %d",
			c.InC*c.H*c.W, c.InC, c.H, c.W, in)
	}
	return c.OutC * c.H * c.W, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	return []*Param{
		{Name: c.Name() + ".W", W: c.Wt, G: c.dW},
		{Name: c.Name() + ".b", W: c.B, G: c.dB},
	}
}

// im2col unrolls sample x (len InC*H*W) into c.cols: row (ic*K*K + ky*K
// + kx) and column (y*W + x) holds input value at channel ic, position
// (y+ky-pad, x+kx-pad), zero outside the image.
func (c *Conv2D) im2col(x []float64) {
	k, h, w := c.K, c.H, c.W
	pad := k / 2
	cols := c.cols.Data
	for ic := 0; ic < c.InC; ic++ {
		chOff := ic * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowOff := ((ic*k+ky)*k + kx) * h * w
				for y := 0; y < h; y++ {
					sy := y + ky - pad
					dst := cols[rowOff+y*w : rowOff+(y+1)*w]
					if sy < 0 || sy >= h {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					srcRow := x[chOff+sy*w : chOff+(sy+1)*w]
					for xx := 0; xx < w; xx++ {
						sx := xx + kx - pad
						if sx < 0 || sx >= w {
							dst[xx] = 0
						} else {
							dst[xx] = srcRow[sx]
						}
					}
				}
			}
		}
	}
}

// col2im scatters gradient columns back into dx (adds into dx).
func (c *Conv2D) col2im(dx []float64) {
	k, h, w := c.K, c.H, c.W
	pad := k / 2
	cols := c.dcol.Data
	for ic := 0; ic < c.InC; ic++ {
		chOff := ic * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowOff := ((ic*k+ky)*k + kx) * h * w
				for y := 0; y < h; y++ {
					sy := y + ky - pad
					if sy < 0 || sy >= h {
						continue
					}
					src := cols[rowOff+y*w : rowOff+(y+1)*w]
					dstRow := dx[chOff+sy*w : chOff+(sy+1)*w]
					for xx := 0; xx < w; xx++ {
						sx := xx + kx - pad
						if sx >= 0 && sx < w {
							dstRow[sx] += src[xx]
						}
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	inDim := c.InC * c.H * c.W
	if x.Cols() != inDim {
		panic(fmt.Sprintf("nn: %s got input width %d", c.Name(), x.Cols()))
	}
	batch := x.Rows()
	c.x = x
	hw := c.H * c.W
	out := ensure2D(&c.out, batch, c.OutC*hw)
	ensure2D(&c.cols, c.InC*c.K*c.K, hw)
	for s := 0; s < batch; s++ {
		c.im2col(x.Row(s))
		outS := tensor.FromSlice(out.Row(s), c.OutC, hw)
		tensor.MatMul(outS, c.Wt, c.cols, false, false)
		// Per-channel bias.
		for oc := 0; oc < c.OutC; oc++ {
			b := c.B.Data[oc]
			row := outS.Row(oc)
			for i := range row {
				row[i] += b
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return c.backward(dy, true)
}

// backwardParamsOnly is Backward without the input gradient (the
// W^T·dy GEMM and col2im scatter per sample) — see Network.backwardTrain.
func (c *Conv2D) backwardParamsOnly(dy *tensor.Tensor) {
	c.backward(dy, false)
}

func (c *Conv2D) backward(dy *tensor.Tensor, wantDX bool) *tensor.Tensor {
	if c.x == nil {
		panic("nn: conv Backward before Forward")
	}
	batch := dy.Rows()
	hw := c.H * c.W
	var dx *tensor.Tensor
	if wantDX {
		dx = ensure2D(&c.dx, batch, c.InC*hw)
		dx.Zero()
		ensure2D(&c.dcol, c.InC*c.K*c.K, hw)
	}
	for s := 0; s < batch; s++ {
		// Recompute the im2col of this sample (cheaper than caching all
		// columns for the batch: memory O(1 sample) instead of O(batch)).
		c.im2col(c.x.Row(s))
		dyS := tensor.FromSlice(dy.Row(s), c.OutC, hw)
		// dW accumulates dy_s · cols^T over the batch's samples; the
		// first sample writes (per the Layer contract, gradients are
		// overwritten, so the buffer needs no pre-zeroing), the rest
		// accumulate. Each element's per-sample dot product is formed in
		// full before the add, so the chain matches the old
		// scratch-then-add path.
		if s == 0 {
			tensor.MatMul(c.dW, dyS, c.cols, false, true)
		} else {
			tensor.MatMulAcc(c.dW, dyS, c.cols, false, true)
		}
		// db accumulates the per-channel sums the same way.
		for oc := 0; oc < c.OutC; oc++ {
			var sum float64
			for _, v := range dyS.Row(oc) {
				sum += v
			}
			if s == 0 {
				c.dB.Data[oc] = sum
			} else {
				c.dB.Data[oc] += sum
			}
		}
		if wantDX {
			// dcols = W^T · dy_s, then scatter back.
			tensor.MatMul(c.dcol, c.Wt, dyS, true, false)
			c.col2im(dx.Row(s))
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// MaxPool2D

// MaxPool2D is a 2x2, stride-2 max pooling over [C, H, W] features.
// H and W must be even.
type MaxPool2D struct {
	C, H, W int
	argmax  []int32 // per output element: index into the input sample
	out     *tensor.Tensor
	dx      *tensor.Tensor
	inCols  int
}

// NewMaxPool2D constructs the pooling layer.
func NewMaxPool2D(c, h, w int) *MaxPool2D {
	if c <= 0 || h <= 0 || w <= 0 || h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: invalid maxpool dims c=%d h=%d w=%d (h,w must be even)", c, h, w))
	}
	return &MaxPool2D{C: c, H: h, W: w}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool2d(%dx%dx%d)", m.C, m.H, m.W) }

// OutDim implements Layer.
func (m *MaxPool2D) OutDim(in int) (int, error) {
	if in != m.C*m.H*m.W {
		return 0, fmt.Errorf("nn: maxpool expects input width %d, got %d", m.C*m.H*m.W, in)
	}
	return m.C * (m.H / 2) * (m.W / 2), nil
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	inDim := m.C * m.H * m.W
	if x.Cols() != inDim {
		panic(fmt.Sprintf("nn: %s got input width %d", m.Name(), x.Cols()))
	}
	batch := x.Rows()
	oh, ow := m.H/2, m.W/2
	outDim := m.C * oh * ow
	out := ensure2D(&m.out, batch, outDim)
	if cap(m.argmax) < batch*outDim {
		m.argmax = make([]int32, batch*outDim)
	}
	m.argmax = m.argmax[:batch*outDim]
	m.inCols = inDim
	for s := 0; s < batch; s++ {
		in := x.Row(s)
		o := out.Row(s)
		am := m.argmax[s*outDim : (s+1)*outDim]
		for ch := 0; ch < m.C; ch++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					base := ch*m.H*m.W + 2*y*m.W + 2*xx
					best := base
					bv := in[base]
					for _, off := range [3]int{1, m.W, m.W + 1} {
						if v := in[base+off]; v > bv {
							bv = v
							best = base + off
						}
					}
					oi := ch*oh*ow + y*ow + xx
					o[oi] = bv
					am[oi] = int32(best)
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	batch := dy.Rows()
	outDim := dy.Cols()
	dx := ensure2D(&m.dx, batch, m.inCols)
	dx.Zero()
	for s := 0; s < batch; s++ {
		am := m.argmax[s*outDim : (s+1)*outDim]
		dyRow := dy.Row(s)
		dxRow := dx.Row(s)
		for i, g := range dyRow {
			dxRow[am[i]] += g
		}
	}
	return dx
}
