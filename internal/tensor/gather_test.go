package tensor

import (
	"runtime"
	"testing"

	"dlpic/internal/rng"
)

// MatMulAcc into a zeroed destination must be bit-identical to MatMul,
// and a second accumulation must add the product exactly once more.
func TestMatMulAccMatchesMatMul(t *testing.T) {
	r := rng.New(41)
	for _, tc := range []struct {
		transA, transB bool
		m, k, n        int
	}{
		{false, false, 5, 7, 6},
		{false, true, 5, 7, 6},
		{true, false, 5, 7, 6},
		{true, true, 5, 7, 6},
		{false, false, 33, 17, 300}, // wide: column-split NN kernel
		{true, false, 64, 9, 12},    // the dW += x^T dy shape
	} {
		a := randTensor(r, tc.m, tc.k)
		if tc.transA {
			a = randTensor(r, tc.k, tc.m)
		}
		b := randTensor(r, tc.k, tc.n)
		if tc.transB {
			b = randTensor(r, tc.n, tc.k)
		}
		want := New(tc.m, tc.n)
		MatMul(want, a, b, tc.transA, tc.transB)
		got := New(tc.m, tc.n)
		MatMulAcc(got, a, b, tc.transA, tc.transB)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("transA=%v transB=%v: zeroed MatMulAcc differs at %d: %v vs %v",
					tc.transA, tc.transB, i, got.Data[i], want.Data[i])
			}
		}
		// A second accumulation continues each element's chain from the
		// stored value, so it doubles the product only up to rounding.
		MatMulAcc(got, a, b, tc.transA, tc.transB)
		for i := range got.Data {
			if d := got.Data[i] - 2*want.Data[i]; d > 1e-10 || d < -1e-10 {
				t.Fatalf("transA=%v transB=%v: second MatMulAcc not additive at %d (err %v)", tc.transA, tc.transB, i, d)
			}
		}
	}
}

func TestGatherRows(t *testing.T) {
	r := rng.New(42)
	src := randTensor(r, 10, 4)
	idx := []int{7, 0, 7, 3, 9}
	dst := New(len(idx), 4)
	GatherRows(dst, src, idx)
	for i, s := range idx {
		for j := 0; j < 4; j++ {
			if dst.Row(i)[j] != src.Row(s)[j] {
				t.Fatalf("row %d col %d: %v != src row %d", i, j, dst.Row(i)[j], s)
			}
		}
	}
}

func TestGatherRowsPanics(t *testing.T) {
	src := New(4, 3)
	for _, tc := range []struct {
		name string
		dst  *Tensor
		idx  []int
	}{
		{"width", New(2, 2), []int{0, 1}},
		{"rows", New(3, 3), []int{0, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch should panic", tc.name)
				}
			}()
			GatherRows(tc.dst, src, tc.idx)
		}()
	}
}

// SumRows must stay bit-identical to the serial accumulation at every
// GOMAXPROCS (column split, per-element chain unchanged).
func TestSumRowsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	r := rng.New(43)
	m := randTensor(r, 37, 1500) // wide enough to cross the split threshold
	want := make([]float64, 1500)
	for i := 0; i < m.Shape[0]; i++ {
		row := m.Row(i)
		for j, v := range row {
			want[j] += v
		}
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		got := make([]float64, 1500)
		SumRows(got, m)
		runtime.GOMAXPROCS(old)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("GOMAXPROCS=%d: col %d = %v, want %v", procs, j, got[j], want[j])
			}
		}
	}
}
