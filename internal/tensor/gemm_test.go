package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dlpic/internal/rng"
)

// gemmShapes is the property-test grid: degenerate single-element
// products, sub-block and exact-block shapes, every remainder class
// around the row block and the NT register tile, odd and even k (the
// k-unroll tail), and tall/wide paper-flavoured shapes.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 5, 1},
	{2, 3, 4},
	{3, 7, 5},
	{4, 4, 4},
	{4, 16, 4},
	{5, 9, 6},
	{7, 13, 9},
	{8, 8, 8},
	{8, 31, 17},
	{9, 17, 33},
	{16, 64, 63},
	{16, 64, 64},
	{16, 64, 65},
	{17, 40, 67},
	{33, 128, 12},
	{64, 100, 70},
	{100, 64, 3},
	{3, 300, 100},
}

// randTensorSparse fills a tensor with normal variates, with roughly a
// quarter of the entries forced to exact zero so every kernel's
// zero-skip branch is exercised (ReLU activations look like this).
func randTensorSparse(r *rng.Source, rows, cols int) *Tensor {
	t := New(rows, cols)
	t.RandomNormal(r, 1)
	for i := range t.Data {
		if r.Float64() < 0.25 {
			t.Data[i] = 0
		}
	}
	return t
}

// diffBits returns the first index where got and want differ bitwise,
// or -1. NaNs with equal bit patterns compare equal.
func diffBits(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestMatMulTiledBitEqualsReference is the tiling contract: for every
// shape x transpose x acc combination, at several GOMAXPROCS settings,
// the tiled kernels must agree with the serial reference loops bit for
// bit on every element — once with the Go row updates and, where the
// CPU has AVX, once with the assembly ones.
func TestMatMulTiledBitEqualsReference(t *testing.T) {
	for _, asm := range asmModes() {
		withAsm(asm, func() { checkTiledBitEqualsReference(t, asm) })
	}
}

func checkTiledBitEqualsReference(t *testing.T, asm bool) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	r := rng.New(42)
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, sh := range gemmShapes {
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					for _, acc := range []bool{false, true} {
						am, ak := sh.m, sh.k
						if transA {
							am, ak = ak, am
						}
						bk, bn := sh.k, sh.n
						if transB {
							bk, bn = bn, bk
						}
						a := randTensorSparse(r, am, ak)
						b := randTensorSparse(r, bk, bn)
						got := randTensorSparse(r, sh.m, sh.n)
						want := got.Clone() // same starting dst so acc chains match
						if acc {
							MatMulAcc(got, a, b, transA, transB)
							MatMulAccRef(want, a, b, transA, transB)
						} else {
							MatMul(got, a, b, transA, transB)
							MatMulRef(want, a, b, transA, transB)
						}
						if i := diffBits(got.Data, want.Data); i >= 0 {
							t.Fatalf("asm=%v procs=%d m=%d k=%d n=%d transA=%v transB=%v acc=%v: element %d tiled=%x ref=%x",
								asm, procs, sh.m, sh.k, sh.n, transA, transB, acc,
								i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// TestMatMulGOMAXPROCSInvariant pins the stronger form of determinism:
// the tiled kernels produce bitwise the same output at every
// GOMAXPROCS, not merely reference-equal ones.
func TestMatMulGOMAXPROCSInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	r := rng.New(7)
	a := randTensorSparse(r, 33, 70)
	b := randTensorSparse(r, 70, 130)
	runtime.GOMAXPROCS(1)
	base := New(33, 130)
	MatMul(base, a, b, false, false)
	for _, procs := range []int{2, 5, 8} {
		runtime.GOMAXPROCS(procs)
		got := New(33, 130)
		MatMul(got, a, b, false, false)
		if i := diffBits(got.Data, base.Data); i >= 0 {
			t.Fatalf("GOMAXPROCS=%d differs from 1 at element %d", procs, i)
		}
	}
}

// TestMatMulPackPooled proves the kernels allocate no per-call
// scratch in steady state: TN's packed a-transpose comes from the
// pool (an unpooled pack would cost a ~1 MiB allocation per gradient
// GEMM), and NN/NT need no scratch at all.
func TestMatMulPackPooled(t *testing.T) {
	r := rng.New(3)
	for _, tc := range []struct {
		m, k, n        int
		transA, transB bool
	}{
		{64, 256, 512, false, false}, // NN: no scratch
		{512, 64, 256, true, false},  // TN: pooled a-transpose pack
		{64, 512, 256, false, true},  // NT: no scratch
	} {
		am, ak := tc.m, tc.k
		if tc.transA {
			am, ak = ak, am
		}
		bk, bn := tc.k, tc.n
		if tc.transB {
			bk, bn = bn, bk
		}
		a := randTensorSparse(r, am, ak)
		b := randTensorSparse(r, bk, bn)
		dst := New(tc.m, tc.n)
		MatMul(dst, a, b, tc.transA, tc.transB) // warm the pool
		allocs := testing.AllocsPerRun(10, func() {
			MatMul(dst, a, b, tc.transA, tc.transB)
		})
		// Budget covers goroutine fan-out bookkeeping only.
		if allocs > 8 {
			t.Errorf("m=%d k=%d n=%d transA=%v transB=%v: %v allocs/op, scratch is not pooled",
				tc.m, tc.k, tc.n, tc.transA, tc.transB, allocs)
		}
	}
}

// TestMatMulRefPanics pins the shared validation on the reference
// entry points (shape mismatch and aliasing are caller bugs there
// too).
func TestMatMulRefPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := New(2, 3)
	b := New(3, 4)
	expectPanic("bad dst", func() { MatMulRef(New(2, 5), a, b, false, false) })
	expectPanic("alias", func() { MatMulRef(a, a, b, false, false) })
	expectPanic("inner dims", func() { MatMulAccRef(New(2, 2), a, New(2, 2), false, false) })
}

// BenchmarkGEMMTiledVsRef reports the structural tiled-vs-reference
// ratio in one process (the cross-session-noise-proof form of the
// speedup claim). The root bench suite's BenchmarkMatMul_* grid is the
// recorded variant.
func BenchmarkGEMMTiledVsRef(b *testing.B) {
	r := rng.New(5)
	const m, kk, n = 64, 1024, 512
	a := randTensorSparse(r, m, kk)
	w := randTensorSparse(r, kk, n)
	dst := New(m, n)
	for _, v := range []struct {
		name string
		f    func()
	}{
		{"tiled", func() { MatMul(dst, a, w, false, false) }},
		{"ref", func() { MatMulRef(dst, a, w, false, false) }},
	} {
		b.Run(fmt.Sprintf("%s-%dx%dx%d", v.name, m, kk, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.f()
			}
		})
	}
}
