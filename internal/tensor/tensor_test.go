package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"dlpic/internal/rng"
)

// matMulRef is a naive triple-loop reference for property tests.
func matMulRef(a, b *Tensor, transA, transB bool) *Tensor {
	get := func(t *Tensor, i, j int, trans bool) float64 {
		if trans {
			return t.Row(j)[i]
		}
		return t.Row(i)[j]
	}
	am, ak := a.Shape[0], a.Shape[1]
	if transA {
		am, ak = ak, am
	}
	_, bn := b.Shape[0], b.Shape[1]
	if transB {
		bn = b.Shape[0]
	}
	out := New(am, bn)
	for i := 0; i < am; i++ {
		for j := 0; j < bn; j++ {
			var s float64
			for k := 0; k < ak; k++ {
				s += get(a, i, k, transA) * get(b, k, j, transB)
			}
			out.Row(i)[j] = s
		}
	}
	return out
}

func randTensor(r *rng.Source, rows, cols int) *Tensor {
	t := New(rows, cols)
	t.RandomNormal(r, 1)
	return t
}

func TestNewAndAccessors(t *testing.T) {
	a := New(3, 4)
	if a.Len() != 12 || a.Rows() != 3 || a.Cols() != 4 {
		t.Fatalf("shape accessors wrong: %v", a.Shape)
	}
	a.Row(1)[2] = 7.5
	if a.Data[1*4+2] != 7.5 {
		t.Fatalf("row-major layout violated")
	}
	row := a.Row(1)
	if len(row) != 4 || row[2] != 7.5 {
		t.Fatalf("Row view wrong: %v", row)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(3, 0)
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	a := FromSlice(data, 2, 3)
	if a.Row(1)[2] != 6 {
		t.Fatalf("FromSlice layout wrong")
	}
	data[0] = 99 // shared storage
	if a.Row(0)[0] != 99 {
		t.Fatalf("FromSlice must not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice size mismatch did not panic")
		}
	}()
	FromSlice(data, 4, 2)
}

func TestClone(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	c := a.Clone()
	c.Data[0] = -1
	if a.Data[0] == -1 {
		t.Fatal("Clone shares storage")
	}
}

func TestZeroAndScale(t *testing.T) {
	a := FromSlice([]float64{3, 3, 3, 3}, 2, 2)
	a.Scale(2)
	for _, v := range a.Data {
		if v != 6 {
			t.Fatalf("Scale = %v, want 6", v)
		}
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	dst := New(2, 2)
	Add(dst, a, b)
	if dst.Row(1)[1] != 44 {
		t.Fatalf("Add wrong: %v", dst.Data)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := New(3, 2)
	AddRowVector(a, []float64{1, -2})
	for i := 0; i < 3; i++ {
		if a.Row(i)[0] != 1 || a.Row(i)[1] != -2 {
			t.Fatalf("broadcast failed at row %d", i)
		}
	}
	sums := make([]float64, 2)
	SumRows(sums, a)
	if sums[0] != 3 || sums[1] != -6 {
		t.Fatalf("SumRows = %v, want [3 -6]", sums)
	}
}

func TestMatMulAgainstReferenceAllTransposes(t *testing.T) {
	r := rng.New(1)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 17, 29},
	}
	for _, s := range shapes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				var a, b *Tensor
				if transA {
					a = randTensor(r, s.k, s.m)
				} else {
					a = randTensor(r, s.m, s.k)
				}
				if transB {
					b = randTensor(r, s.n, s.k)
				} else {
					b = randTensor(r, s.k, s.n)
				}
				got := New(s.m, s.n)
				MatMul(got, a, b, transA, transB)
				want := matMulRef(a, b, transA, transB)
				for i := range got.Data {
					if math.Abs(got.Data[i]-want.Data[i]) > 1e-10*float64(s.k) {
						t.Fatalf("shape %v transA=%v transB=%v: mismatch at %d: %v vs %v",
							s, transA, transB, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestMatMulLargeParallel(t *testing.T) {
	r := rng.New(2)
	a := randTensor(r, 130, 70)
	b := randTensor(r, 70, 90)
	got := New(130, 90)
	MatMul(got, a, b, false, false)
	want := matMulRef(a, b, false, false)
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
}

// Property: (A B) C == A (B C).
func TestMatMulAssociativityProperty(t *testing.T) {
	r := rng.New(3)
	f := func(mRaw, kRaw, nRaw, pRaw uint8) bool {
		m, k, n, p := int(mRaw%6)+1, int(kRaw%6)+1, int(nRaw%6)+1, int(pRaw%6)+1
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		c := randTensor(r, n, p)
		ab := New(m, n)
		MatMul(ab, a, b, false, false)
		abc1 := New(m, p)
		MatMul(abc1, ab, c, false, false)
		bc := New(k, p)
		MatMul(bc, b, c, false, false)
		abc2 := New(m, p)
		MatMul(abc2, a, bc, false, false)
		for i := range abc1.Data {
			if math.Abs(abc1.Data[i]-abc2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulPanics(t *testing.T) {
	cases := []func(){
		func() { MatMul(New(2, 2), New(2, 3), New(2, 3), false, false) }, // inner mismatch
		func() { MatMul(New(3, 3), New(2, 3), New(3, 2), false, false) }, // dst mismatch
		func() { a := New(2, 2); MatMul(a, a, New(2, 2), false, false) }, // aliasing
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRandomInitializers(t *testing.T) {
	r := rng.New(5)
	a := New(100, 100)
	a.RandomNormal(r, 0.5)
	var sum, sumSq float64
	for _, v := range a.Data {
		sum += v
		sumSq += v * v
	}
	n := float64(a.Len())
	if std := math.Sqrt(sumSq/n - (sum/n)*(sum/n)); math.Abs(std-0.5) > 0.02 {
		t.Errorf("RandomNormal std %v, want 0.5", std)
	}
	b := New(100, 100)
	b.RandomUniform(r, 0.3)
	for _, v := range b.Data {
		if v < -0.3 || v > 0.3 {
			t.Fatalf("uniform value %v outside [-0.3,0.3]", v)
		}
	}
}

func TestSameShape(t *testing.T) {
	if !SameShape(New(2, 3), New(2, 3)) {
		t.Error("equal shapes reported different")
	}
	if SameShape(New(2, 3), New(3, 2)) {
		t.Error("different shapes reported equal")
	}
	if SameShape(New(6), New(2, 3)) {
		t.Error("different ranks reported equal")
	}
}

func BenchmarkMatMul64x4096x256(b *testing.B) {
	r := rng.New(1)
	a := randTensor(r, 64, 4096)
	w := randTensor(r, 4096, 256)
	dst := New(64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, w, false, false)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := rng.New(1)
	a := randTensor(r, 256, 256)
	w := randTensor(r, 256, 256)
	dst := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, w, false, false)
	}
}
