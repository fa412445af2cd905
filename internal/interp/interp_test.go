package interp

import (
	"math"
	"testing"
	"testing/quick"

	"dlpic/internal/grid"
	"dlpic/internal/rng"
)

var allSchemes = []Scheme{NGP, CIC, TSC}

func randomPositions(r *rng.Source, n int, l float64) []float64 {
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = r.Float64() * l
	}
	return pos
}

func TestSchemeString(t *testing.T) {
	cases := map[Scheme]string{NGP: "NGP", CIC: "CIC", TSC: "TSC", Scheme(9): "Scheme(9)"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("String() = %q, want %q", s.String(), want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"NGP", "CIC", "TSC", "ngp", "cic", "tsc"} {
		s, err := ParseScheme(name)
		if err != nil {
			t.Errorf("ParseScheme(%q) error: %v", name, err)
		}
		if !s.Valid() {
			t.Errorf("ParseScheme(%q) invalid scheme", name)
		}
	}
	if _, err := ParseScheme("spline"); err == nil {
		t.Error("ParseScheme(spline) should fail")
	}
}

// Each scheme's weight kernel touches 1, 2 and 3 grid nodes.
func TestSupport(t *testing.T) {
	g := grid.MustNew(32, 2.0)
	for s, want := range map[Scheme]int{NGP: 1, CIC: 2, TSC: 3} {
		var w [3]float64
		if _, cnt := weights(s, g, 0.77, &w); cnt != want {
			t.Errorf("%v touches %d nodes, want %d", s, cnt, want)
		}
	}
}

// Property: weights are non-negative and sum to 1 for any position.
func TestWeightsPartitionOfUnity(t *testing.T) {
	g := grid.MustNew(32, 2.0)
	f := func(xRaw float64) bool {
		x := g.Wrap(math.Abs(math.Mod(xRaw, 100)))
		for _, s := range allSchemes {
			var w [3]float64
			_, cnt := weights(s, g, x, &w)
			var sum float64
			for k := 0; k < cnt; k++ {
				if w[k] < -1e-12 {
					return false
				}
				sum += w[k]
			}
			if math.Abs(sum-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Gathering a constant field returns the constant exactly for every scheme.
func TestGatherConstantField(t *testing.T) {
	g := grid.MustNew(16, 4.0)
	field := make([]float64, 16)
	for i := range field {
		field[i] = -3.25
	}
	pos := randomPositions(rng.New(1), 500, g.Length())
	out := make([]float64, len(pos))
	for _, s := range allSchemes {
		Gather(s, g, field, pos, out)
		for p, v := range out {
			if math.Abs(v+3.25) > 1e-12 {
				t.Fatalf("%v: particle %d gathered %v, want -3.25", s, p, v)
			}
		}
	}
}

// CIC reproduces linear functions exactly away from the periodic seam.
func TestGatherCICLinearExact(t *testing.T) {
	g := grid.MustNew(64, 8.0)
	field := make([]float64, 64)
	for i := range field {
		field[i] = 2*g.X(i) + 1
	}
	r := rng.New(2)
	// Keep positions inside [dx, L-2dx] so the seam (where the linear ramp
	// wraps) is not touched.
	pos := make([]float64, 300)
	for i := range pos {
		pos[i] = g.Dx() + r.Float64()*(g.Length()-3*g.Dx())
	}
	out := make([]float64, len(pos))
	Gather(CIC, g, field, pos, out)
	for p, v := range out {
		want := 2*pos[p] + 1
		if math.Abs(v-want) > 1e-10 {
			t.Fatalf("particle %d at %v: gathered %v, want %v", p, pos[p], v, want)
		}
	}
}

// TSC also reproduces linear functions exactly (order >= 1).
func TestGatherTSCLinearExact(t *testing.T) {
	g := grid.MustNew(64, 8.0)
	field := make([]float64, 64)
	for i := range field {
		field[i] = -0.5*g.X(i) + 3
	}
	r := rng.New(3)
	pos := make([]float64, 300)
	for i := range pos {
		pos[i] = 2*g.Dx() + r.Float64()*(g.Length()-4*g.Dx())
	}
	out := make([]float64, len(pos))
	Gather(TSC, g, field, pos, out)
	for p, v := range out {
		want := -0.5*pos[p] + 3
		if math.Abs(v-want) > 1e-10 {
			t.Fatalf("particle %d: gathered %v, want %v", p, v, want)
		}
	}
}

// Gather is linear in the field: gather(a*F + G) = a*gather(F) + gather(G).
func TestGatherLinearityProperty(t *testing.T) {
	g := grid.MustNew(16, 2.0)
	r := rng.New(4)
	pos := randomPositions(r, 64, g.Length())
	f := func(aRaw int8) bool {
		a := float64(aRaw) / 8
		f1 := make([]float64, 16)
		f2 := make([]float64, 16)
		for i := range f1 {
			f1[i] = r.NormFloat64()
			f2[i] = r.NormFloat64()
		}
		comb := make([]float64, 16)
		for i := range comb {
			comb[i] = a*f1[i] + f2[i]
		}
		for _, s := range allSchemes {
			o1 := make([]float64, len(pos))
			o2 := make([]float64, len(pos))
			oc := make([]float64, len(pos))
			Gather(s, g, f1, pos, o1)
			Gather(s, g, f2, pos, o2)
			Gather(s, g, comb, pos, oc)
			for p := range pos {
				if math.Abs(oc[p]-(a*o1[p]+o2[p])) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Deposit conserves total charge for every scheme and any
// particle placement: integral(rho) == Np * q.
func TestDepositChargeConservationProperty(t *testing.T) {
	g := grid.MustNew(32, 2*math.Pi/3.06)
	r := rng.New(5)
	f := func(npRaw uint8, qRaw int8) bool {
		np := int(npRaw)%500 + 1
		q := float64(qRaw)/32 - 0.5
		pos := randomPositions(r, np, g.Length())
		rho := make([]float64, g.N())
		for _, s := range allSchemes {
			Deposit(s, g, pos, q, rho)
			got := g.Integral(rho)
			want := float64(np) * q
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDepositUniformPlacementGivesUniformDensity(t *testing.T) {
	// One particle per cell center -> perfectly uniform density for all
	// schemes (each particle contributes symmetric weights).
	g := grid.MustNew(16, 4.0)
	pos := make([]float64, 16)
	for i := range pos {
		pos[i] = (float64(i) + 0.5) * g.Dx()
	}
	q := -2.0
	want := q * float64(len(pos)) / g.Length()
	rho := make([]float64, g.N())
	for _, s := range allSchemes {
		Deposit(s, g, pos, q, rho)
		for i, v := range rho {
			if math.Abs(v-want) > 1e-12 {
				t.Fatalf("%v: rho[%d] = %v, want %v", s, i, v, want)
			}
		}
	}
}

func TestDepositSingleParticleNGP(t *testing.T) {
	g := grid.MustNew(8, 8.0)
	rho := make([]float64, 8)
	// Particle at x = 2.3 -> nearest node 2.
	Deposit(NGP, g, []float64{2.3}, 1.0, rho)
	for i, v := range rho {
		want := 0.0
		if i == 2 {
			want = 1.0 // q/dx with dx=1
		}
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("rho[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestDepositSingleParticleCIC(t *testing.T) {
	g := grid.MustNew(8, 8.0)
	rho := make([]float64, 8)
	Deposit(CIC, g, []float64{2.25}, 1.0, rho)
	if math.Abs(rho[2]-0.75) > 1e-12 || math.Abs(rho[3]-0.25) > 1e-12 {
		t.Fatalf("CIC split rho[2]=%v rho[3]=%v, want 0.75/0.25", rho[2], rho[3])
	}
}

func TestDepositPeriodicWrapAtSeam(t *testing.T) {
	g := grid.MustNew(8, 8.0)
	rho := make([]float64, 8)
	// Particle just left of the seam splits between node 7 and node 0.
	Deposit(CIC, g, []float64{7.5}, 1.0, rho)
	if math.Abs(rho[7]-0.5) > 1e-12 || math.Abs(rho[0]-0.5) > 1e-12 {
		t.Fatalf("seam split rho[7]=%v rho[0]=%v, want 0.5/0.5", rho[7], rho[0])
	}
	// TSC at a node on the seam spreads 0.125 / 0.75 / 0.125.
	Deposit(TSC, g, []float64{0}, 1.0, rho)
	if math.Abs(rho[0]-0.75) > 1e-12 || math.Abs(rho[7]-0.125) > 1e-12 || math.Abs(rho[1]-0.125) > 1e-12 {
		t.Fatalf("TSC seam: rho[7]=%v rho[0]=%v rho[1]=%v", rho[7], rho[0], rho[1])
	}
}

// Momentum conservation: with the same scheme for deposit and gather and a
// symmetric field solve, the total self-force sum_p q E(x_p) vanishes.
// Here we test the interpolation part of that statement: for the field
// produced by any charge distribution through a *symmetric* linear solve,
// the CIC pair gives zero total force. We verify the weaker identity that
// gather-transpose equals deposit: sum_p gather(F)[p] = sum_i F[i] *
// (deposited unit weights)[i] * dx, which is the adjointness property the
// momentum-conservation proof relies on.
func TestGatherDepositAdjointProperty(t *testing.T) {
	g := grid.MustNew(16, 2.0)
	r := rng.New(6)
	f := func(npRaw uint8) bool {
		np := int(npRaw)%100 + 1
		pos := randomPositions(r, np, g.Length())
		field := make([]float64, g.N())
		for i := range field {
			field[i] = r.NormFloat64()
		}
		for _, s := range allSchemes {
			out := make([]float64, np)
			Gather(s, g, field, pos, out)
			var lhs float64
			for _, v := range out {
				lhs += v
			}
			rho := make([]float64, g.N())
			Deposit(s, g, pos, 1.0, rho)
			var rhs float64
			for i := range rho {
				rhs += rho[i] * field[i]
			}
			rhs *= g.Dx()
			if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDepositDeterministicAcrossRuns(t *testing.T) {
	g := grid.MustNew(64, 2.0)
	pos := randomPositions(rng.New(8), 100000, g.Length())
	a := make([]float64, g.N())
	b := make([]float64, g.N())
	Deposit(CIC, g, pos, -1.0, a)
	Deposit(CIC, g, pos, -1.0, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic deposit at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGatherPanicsOnBadLengths(t *testing.T) {
	g := grid.MustNew(8, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on field length mismatch")
		}
	}()
	Gather(CIC, g, make([]float64, 4), []float64{0.5}, make([]float64, 1))
}

func BenchmarkDepositCIC64k(b *testing.B) {
	g := grid.MustNew(64, 2*math.Pi/3.06)
	pos := randomPositions(rng.New(1), 64000, g.Length())
	rho := make([]float64, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Deposit(CIC, g, pos, -1, rho)
	}
}

func BenchmarkGatherCIC64k(b *testing.B) {
	g := grid.MustNew(64, 2*math.Pi/3.06)
	pos := randomPositions(rng.New(1), 64000, g.Length())
	field := make([]float64, g.N())
	out := make([]float64, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(CIC, g, field, pos, out)
	}
}
