package tensor

import (
	"sync"

	"dlpic/internal/parallel"
)

// Tiled GEMM kernels.
//
// The four transpose variants below are cache-blocked rewrites of the
// reference loops in ref_test.go. The contract is strict bit-equality: every
// output element is produced by the exact per-element accumulation
// chain of its reference kernel — k ascending, the same zero-skip rule,
// the same acc seeding — so goldens, gradient checks and campaign
// digests are unchanged by the blocking. Three facts make that
// possible:
//
//   - An IEEE-754 accumulation chain does not care whether a partial
//     sum lives in a register or in dst's memory between additions.
//     Blocking the k loop and parking the partial sums in dst between
//     blocks performs the same additions in the same order as one
//     unblocked pass; holding a register tile's sums in scalars does
//     too.
//   - Fusing two k steps into one statement (s := d + v0*b0;
//     d = s + v1*b1) is the reference's two sequential read-modify-
//     writes with the intermediate kept in a register — same additions,
//     same order, one load and one store instead of two.
//   - Packing (the TN kernel transposes a into pooled scratch) copies
//     values without arithmetic, so the products are bitwise the
//     products the reference computes from the strided operand.
//
// Each dst element is written by exactly one worker per k block
// (partitions are over output rows), so results are bit-identical at
// any GOMAXPROCS — same as every other kernel in this package.
//
// Why the NN/TN kernels are wide loops rather than classic register
// tiles: the zero-skip rule is semantically load-bearing (dropping it
// flips signed zeros in gradients, which Adam's moments remember and
// the campaign digests hash), so every kernel carries one
// data-dependent branch per a-element. ReLU activations make that
// branch genuinely unpredictable (~25% zeros), and a 2x4 register tile
// amortizes each misprediction over only 4 FMAs — measured, that made
// the tiled kernel ~2.8x slower than the naive loop. A row-wide inner
// loop amortizes the same misprediction over n FMAs, which is why the
// blocking here keeps the reference's loop shape and attacks memory
// traffic instead: 4-row blocks reuse each b row from L1, the 2x
// k-unroll halves dst load/store traffic, and the KC blocking keeps
// the active slab of b resident in L2 instead of streaming all of b
// from L3 once per row block. NT has no zero-skip (its reference
// builds local dot products over contiguous rows of both operands), so
// it keeps a branch-free 2x4 register tile.
//
// The row update itself — d[j] += v*b[j] over one dst row, or its
// two-k-step form — is axpy1/axpy2 (axpy.go). On amd64 CPUs with AVX
// (CPUID and XGETBV checked once at init) it runs in assembly, four
// doubles per instruction, with a separately rounded multiply and add
// per element: the IEEE operations the scalar Go loop performs, so the
// chain above is unchanged. It must never become an FMA, which rounds
// once and would move every digest. Elsewhere, and under the purego
// build tag, the Go loops run.

const (
	// gemmMR x gemmNR is the NT register tile: each micro-kernel call
	// produces this many output elements with the k loop's partial sums
	// held entirely in scalar registers. 2x4 is deliberate: eight
	// accumulators plus a four-wide b load and one a-value fit amd64's
	// sixteen float registers; a 4x4 tile's sixteen accumulators spill
	// to the stack (measured slower).
	gemmMR = 2
	gemmNR = 4

	// gemmRowBlock is the NN/TN row block: dst rows processed together
	// so each pair of b rows is read from L1 by every row in the block.
	// 4 rows of dst plus 2 rows of b stay inside a 48 KiB L1d for the
	// widest layer in the repo (n = 512: 4*4 KiB + 2*4 KiB = 24 KiB).
	gemmRowBlock = 4

	// gemmKCBytes bounds the bytes of b touched per k block so the slab
	// stays L2-resident while every row block re-reads it (b itself is
	// up to 8 MiB for the paper-shaped layers, several times L2).
	gemmKCBytes = 1 << 20

	// gemmKCMin floors the k block length so pathological widths cannot
	// degenerate into per-row-pair passes over b.
	gemmKCMin = 16

	// gemmParThreshold is the output-row count below which row-parallel
	// kernels run inline (tiny matrices are not worth goroutines).
	gemmParThreshold = 8
)

// packPool recycles packed-operand scratch across GEMM calls so the
// steady-state kernel allocates nothing (asserted by the pack-pooling
// test).
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// getPack leases a scratch buffer of at least n elements. The returned
// handle goes back via putPack; the slice is valid until then.
func getPack(n int) (*[]float64, []float64) {
	h := packPool.Get().(*[]float64)
	if cap(*h) < n {
		*h = make([]float64, n)
	}
	return h, (*h)[:n]
}

func putPack(h *[]float64) { packPool.Put(h) }

// gemmKC returns the k-block length for an n-wide b: as many b rows as
// fit the gemmKCBytes budget, floored by gemmKCMin. Depends only on
// shape, so blocking is deterministic.
func gemmKC(n int) int {
	kc := gemmKCBytes / 8 / n
	if kc < gemmKCMin {
		kc = gemmKCMin
	}
	return kc
}

// nnKernel is the shared row-major GEMM engine: dst[i][j] (+)=
// sum_k a[i][k] b[k][j] for row-major aData (m x kk), bData (kk x n),
// dstData (m x n). matMulNN runs it directly; matMulTN runs it on a
// packed transpose of a. Per element the chain is the reference's
// exactly: k ascending (across and within k blocks — partial sums park
// in dst between blocks, which IEEE-754 addition cannot distinguish
// from a register), zero a-entries skipped, seeded from dst under acc.
func nnKernel(dstData, aData, bData []float64, m, kk, n int, acc bool) {
	kcap := gemmKC(n)
	parallel.ForThreshold(m, gemmParThreshold, func(is, ie int) {
		for kb := 0; kb < kk; kb += kcap {
			ke := min(kb+kcap, kk)
			for ib := is; ib < ie; ib += gemmRowBlock {
				im := min(ib+gemmRowBlock, ie)
				if !acc && kb == 0 {
					for i := ib; i < im; i++ {
						di := dstData[i*n : i*n+n]
						for j := range di {
							di[j] = 0
						}
					}
				}
				k := kb
				for ; k+1 < ke; k += 2 {
					bk0 := bData[k*n : k*n+n]
					bk1 := bData[(k+1)*n : (k+1)*n+n]
					for i := ib; i < im; i++ {
						v0 := aData[i*kk+k]
						v1 := aData[i*kk+k+1]
						if v0 == 0 && v1 == 0 {
							continue
						}
						di := dstData[i*n : i*n+n]
						switch {
						case v0 != 0 && v1 != 0:
							axpy2(di, bk0, bk1, v0, v1)
						case v0 != 0:
							axpy1(di, bk0, v0)
						default:
							axpy1(di, bk1, v1)
						}
					}
				}
				if k < ke {
					bk := bData[k*n : k*n+n]
					for i := ib; i < im; i++ {
						if v := aData[i*kk+k]; v != 0 {
							axpy1(dstData[i*n:i*n+n], bk, v)
						}
					}
				}
			}
		}
	})
}

// matMulNN: dst[i][j] = sum_k a[i][k] b[k][j]. This is the hot GEMM of
// both inference (b = weight matrix) and the forward half of training.
// Row-major b needs no packing — each of its rows already is the
// contiguous panel the wide inner loop wants — so the kernel is
// nnKernel on the operands in place.
func matMulNN(dst, a, b *Tensor, acc bool) {
	nnKernel(dst.Data, a.Data, b.Data, a.Shape[0], a.Shape[1], b.Shape[1], acc)
}

// matMulTN: dst[i][j] = sum_k a[k][i] b[k][j] — the parameter-gradient
// GEMM (dW = x^T dy), where k is the shard's row count. Here a's
// layout does fight the kernel (its k index strides by m), so a is
// packed once per call: transposed into pooled scratch, row-major,
// then reused across every row block by the shared engine. The pack is
// a pure copy, so products are bitwise the reference's; the pack costs
// O(m*kk) against the O(m*kk*n) multiply.
func matMulTN(dst, a, b *Tensor, acc bool) {
	kk, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	h, at := getPack(m * kk)
	for k := 0; k < kk; k++ {
		ak := a.Data[k*m : (k+1)*m]
		for i, v := range ak {
			at[i*kk+k] = v
		}
	}
	nnKernel(dst.Data, at, b.Data, m, kk, n, acc)
	putPack(h)
}

// matMulNT: dst[i][j] = dot(a[i,:], b[j,:]). Both operands are already
// contiguous along k, so no packing is needed; the register tile
// reuses each loaded a-value across four b rows and each b-value
// across two a rows, and each 2x4 tile streams four b rows once for
// eight dot products (halving b traffic versus the reference's
// row-at-a-time dots). Per element the chain is the reference's: a
// local sum from zero, k ascending, no zero skip, then one store (or
// one add under acc).
func matMulNT(dst, a, b *Tensor, acc bool) {
	m, kk := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	parallel.ForThreshold(m, gemmParThreshold, func(is, ie int) {
		for i := is; i < ie; i += gemmMR {
			h := min(gemmMR, ie-i)
			j := 0
			if h == gemmMR {
				for ; j+gemmNR <= n; j += gemmNR {
					ntMicro2x4(dst.Data, a.Data, b.Data, n, kk, i, j, acc)
				}
			}
			for ; j < n; j += gemmNR {
				ntMicro(dst.Data, a.Data, b.Data, n, kk, i, h, j, min(gemmNR, n-j), acc)
			}
		}
	})
}

// ntMicro2x4 computes the 2x4 tile of a * b^T from two a rows and four
// b rows. Sums start at zero regardless of acc — the NT reference
// folds into dst only once, after the dot product.
func ntMicro2x4(dst, aData, bData []float64, n, kk, i0, j0 int, acc bool) {
	ai0 := aData[(i0+0)*kk : (i0+0)*kk+kk]
	ai1 := aData[(i0+1)*kk : (i0+1)*kk+kk]
	bj0 := bData[(j0+0)*kk : (j0+0)*kk+kk]
	bj1 := bData[(j0+1)*kk : (j0+1)*kk+kk]
	bj2 := bData[(j0+2)*kk : (j0+2)*kk+kk]
	bj3 := bData[(j0+3)*kk : (j0+3)*kk+kk]
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	for k := 0; k < kk; k++ {
		b0, b1, b2, b3 := bj0[k], bj1[k], bj2[k], bj3[k]
		a0 := ai0[k]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		a1 := ai1[k]
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	d0 := dst[(i0+0)*n+j0 : (i0+0)*n+j0+4]
	d1 := dst[(i0+1)*n+j0 : (i0+1)*n+j0+4]
	if acc {
		d0[0] += c00
		d0[1] += c01
		d0[2] += c02
		d0[3] += c03
		d1[0] += c10
		d1[1] += c11
		d1[2] += c12
		d1[3] += c13
		return
	}
	d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
	d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
}

// ntMicro is the edge-tile variant of ntMicro2x4 (h x w, h <= gemmMR,
// w <= gemmNR).
func ntMicro(dst, aData, bData []float64, n, kk, i0, h, j0, w int, acc bool) {
	var c [gemmMR][gemmNR]float64
	for k := 0; k < kk; k++ {
		for r := 0; r < h; r++ {
			av := aData[(i0+r)*kk+k]
			cr := &c[r]
			for jj := 0; jj < w; jj++ {
				cr[jj] += av * bData[(j0+jj)*kk+k]
			}
		}
	}
	for r := 0; r < h; r++ {
		dr := dst[(i0+r)*n+j0 : (i0+r)*n+j0+w]
		if acc {
			for jj := 0; jj < w; jj++ {
				dr[jj] += c[r][jj]
			}
		} else {
			copy(dr, c[r][:w])
		}
	}
}

// matMulTT: dst[i][j] = sum_k a[k][i] b[j][k] (rare; used only in
// tests, so it keeps the reference loop shape and only gains the
// zero-skip of the other a-strided kernels).
func matMulTT(dst, a, b *Tensor, acc bool) {
	kk, m := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	parallel.ForThreshold(m, gemmParThreshold, func(start, end int) {
		for i := start; i < end; i++ {
			di := dst.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b.Data[j*kk : (j+1)*kk]
				var s float64
				for k := 0; k < kk; k++ {
					av := a.Data[k*m+i]
					if av == 0 {
						continue
					}
					s += av * bj[k]
				}
				if acc {
					di[j] += s
				} else {
					di[j] = s
				}
			}
		}
	})
}
