package interp

import (
	"math"
	"runtime"
	"testing"

	"dlpic/internal/grid"
	"dlpic/internal/rng"
)

// The deposit and gather kernels must produce bit-identical output at
// every GOMAXPROCS: the chunk decomposition of internal/parallel
// depends only on the particle count, never on the worker count.

func detRandomPositions(n int, l float64) []float64 {
	r := rng.New(99)
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = r.Float64() * l
	}
	return pos
}

func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestDepositBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	g := grid.MustNew(64, 1.0)
	pos := detRandomPositions(50000, g.Length())
	for _, s := range []Scheme{NGP, CIC, TSC} {
		ref := make([]float64, g.N())
		withProcs(t, 1, func() { Deposit(s, g, pos, -1.5, ref) })
		for _, procs := range []int{2, 4, 8} {
			got := make([]float64, g.N())
			withProcs(t, procs, func() { Deposit(s, g, pos, -1.5, got) })
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%v GOMAXPROCS=%d: rho[%d] = %v != serial %v", s, procs, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestGatherBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	g := grid.MustNew(64, 1.0)
	pos := detRandomPositions(40000, g.Length())
	field := make([]float64, g.N())
	r := rng.New(11)
	for i := range field {
		field[i] = r.NormFloat64()
	}
	ref := make([]float64, len(pos))
	withProcs(t, 1, func() { Gather(TSC, g, field, pos, ref) })
	got := make([]float64, len(pos))
	withProcs(t, 8, func() { Gather(TSC, g, field, pos, got) })
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("out[%d] = %v != serial %v", i, got[i], ref[i])
		}
	}
}

// TestCICLoopsBitEqualGeneric holds the straight-line CIC gather and
// deposit to the generic weights() path, bit for bit (so -0 and +0
// differ), on the positions where the two could part: node coordinates
// and their neighbours a few ulps either side, the last representable
// position before L — where x/dx can round up to N and both touched
// nodes wrap — and fields holding negative zeros.
func TestCICLoopsBitEqualGeneric(t *testing.T) {
	negZero := math.Copysign(0, -1)
	roundedUpToN := false
	for _, c := range []struct {
		n int
		l float64
	}{{64, 2 * math.Pi / 3.06}, {7, 0.5}, {8, 1}, {49, 0.5}, {3, 0.1}} {
		g := grid.MustNew(c.n, c.l)
		var pos []float64
		for i := 0; i <= c.n; i++ {
			x := float64(i) * g.Dx()
			for _, y := range []float64{x, math.Nextafter(x, -1), math.Nextafter(math.Nextafter(x, -1), -1),
				math.Nextafter(x, c.l+1), math.Nextafter(math.Nextafter(x, c.l+1), c.l+1)} {
				if y >= 0 && y < c.l {
					pos = append(pos, y)
				}
			}
		}
		pos = append(pos, math.Nextafter(c.l, 0), negZero)
		pos = append(pos, detRandomPositions(500, c.l)...)
		for _, x := range pos {
			if int(x/g.Dx()) == c.n {
				roundedUpToN = true
			}
		}
		r := rng.New(uint64(c.n))
		fields := [][]float64{make([]float64, c.n), make([]float64, c.n), make([]float64, c.n)}
		for i := 0; i < c.n; i++ {
			fields[0][i] = r.NormFloat64()
			fields[1][i] = negZero
			fields[2][i] = []float64{negZero, 0, r.NormFloat64(), -r.Float64()}[i%4]
		}
		got := make([]float64, len(pos))
		want := make([]float64, len(pos))
		for f, field := range fields {
			gatherCIC(g, field, pos, got)
			gatherGeneric(CIC, g, field, pos, want)
			for p := range pos {
				if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
					t.Fatalf("n=%d field %d: gather at x=%v: %v (%#x), generic %v (%#x)", c.n, f,
						pos[p], got[p], math.Float64bits(got[p]), want[p], math.Float64bits(want[p]))
				}
			}
		}
		accGot := make([]float64, c.n)
		accWant := make([]float64, c.n)
		depositCIC(g, pos, accGot)
		depositGeneric(CIC, g, pos, accWant)
		for i := range accWant {
			if math.Float64bits(accGot[i]) != math.Float64bits(accWant[i]) {
				t.Fatalf("n=%d: deposit node %d: %v, generic %v", c.n, i, accGot[i], accWant[i])
			}
		}
	}
	if !roundedUpToN {
		t.Fatal("no test position had x/dx round up to N; the double-wrap case is not covered")
	}
}
