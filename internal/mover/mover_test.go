package mover

import (
	"math"
	"testing"

	"dlpic/internal/grid"
	"dlpic/internal/rng"
)

func TestKickUpdatesVelocities(t *testing.T) {
	v := []float64{1, 2, 3}
	ep := []float64{0.5, -0.5, 0}
	qm, dt := -1.0, 0.2
	Kick(v, ep, qm, dt)
	want := []float64{1 - 0.1, 2 + 0.1, 3}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-15 {
			t.Fatalf("v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestKickDiagnosticSums(t *testing.T) {
	v := []float64{1, -1}
	ep := []float64{2, 2}
	res := Kick(v, ep, 1.0, 0.5) // dv = 1 for both
	// vOld*vNew: 1*2 + (-1)*0 = 2; vMid: (1+2)/2 + (-1+0)/2 = 1.
	if math.Abs(res.VProdSum-2) > 1e-15 {
		t.Errorf("VProdSum = %v, want 2", res.VProdSum)
	}
	if math.Abs(res.VMidSum-1) > 1e-15 {
		t.Errorf("VMidSum = %v, want 1", res.VMidSum)
	}
}

func TestKickDeterministicOnLargeArrays(t *testing.T) {
	r := rng.New(1)
	n := 300000
	v1 := make([]float64, n)
	ep := make([]float64, n)
	for i := range v1 {
		v1[i] = r.NormFloat64()
		ep[i] = r.NormFloat64()
	}
	v2 := append([]float64(nil), v1...)
	r1 := Kick(v1, ep, -1, 0.2)
	r2 := Kick(v2, ep, -1, 0.2)
	if r1 != r2 {
		t.Fatalf("non-deterministic kick sums: %+v vs %+v", r1, r2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("velocity mismatch at %d", i)
		}
	}
}

func TestKickHalfTwiceEqualsKick(t *testing.T) {
	r := rng.New(2)
	n := 1000
	v1 := make([]float64, n)
	ep := make([]float64, n)
	for i := range v1 {
		v1[i] = r.NormFloat64()
		ep[i] = r.NormFloat64()
	}
	v2 := append([]float64(nil), v1...)
	Kick(v1, ep, -1, 0.2)
	KickHalf(v2, ep, -1, 0.2)
	KickHalf(v2, ep, -1, 0.2)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-14 {
			t.Fatalf("mismatch at %d: %v vs %v", i, v1[i], v2[i])
		}
	}
}

func TestDriftWrapsPeriodically(t *testing.T) {
	g := grid.MustNew(8, 1.0)
	x := []float64{0.95, 0.05, 0.5}
	v := []float64{1.0, -1.0, 0.0}
	Drift(x, v, 0.1, g)
	want := []float64{0.05, 0.95, 0.5}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestDriftLargeExcursion(t *testing.T) {
	g := grid.MustNew(8, 1.0)
	x := []float64{0.5}
	v := []float64{37.25} // many periods in one step
	Drift(x, v, 1.0, g)
	if x[0] < 0 || x[0] >= 1 {
		t.Fatalf("x = %v outside domain", x[0])
	}
	if math.Abs(x[0]-0.75) > 1e-9 {
		t.Fatalf("x = %v, want 0.75", x[0])
	}
}

// Leapfrog is time-reversible: kick+drift then drift-back+kick-back
// returns the exact initial state (up to rounding).
func TestLeapfrogReversibility(t *testing.T) {
	g := grid.MustNew(16, 2.0)
	r := rng.New(3)
	n := 500
	x := make([]float64, n)
	v := make([]float64, n)
	ep := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() * g.Length()
		v[i] = 0.1 * r.NormFloat64()
		ep[i] = r.NormFloat64()
	}
	x0 := append([]float64(nil), x...)
	v0 := append([]float64(nil), v...)
	qm, dt := -1.0, 0.2
	Kick(v, ep, qm, dt)
	Drift(x, v, dt, g)
	// Reverse.
	Drift(x, v, -dt, g)
	Kick(v, ep, qm, -dt)
	for i := range x {
		if math.Abs(x[i]-x0[i]) > 1e-12 || math.Abs(v[i]-v0[i]) > 1e-12 {
			t.Fatalf("irreversible at %d: dx=%v dv=%v", i, x[i]-x0[i], v[i]-v0[i])
		}
	}
}

// Leapfrog on a harmonic field E = -x (q/m = 1) conserves the leapfrog
// invariant and stays bounded over many periods.
func TestLeapfrogHarmonicStability(t *testing.T) {
	// Single particle, field evaluated analytically each step.
	x, v := 1.0, 0.0
	dt := 0.2
	// De-stagger: v at t = -dt/2.
	v -= 0.5 * dt * (-x)
	for step := 0; step < 10000; step++ {
		v += dt * (-x)
		x += dt * v
		if math.Abs(x) > 1.2 {
			t.Fatalf("orbit escaped at step %d: x=%v", step, x)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	g := grid.MustNew(8, 1.0)
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanics("Kick", func() { Kick(make([]float64, 2), make([]float64, 3), 1, 1) })
	assertPanics("KickHalf", func() { KickHalf(make([]float64, 2), make([]float64, 3), 1, 1) })
	assertPanics("Drift", func() { Drift(make([]float64, 2), make([]float64, 3), 1, g) })
}

func BenchmarkKick64k(b *testing.B) {
	r := rng.New(1)
	n := 64000
	v := make([]float64, n)
	ep := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
		ep[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kick(v, ep, -1, 0.2)
	}
}

func BenchmarkDrift64k(b *testing.B) {
	g := grid.MustNew(64, 2*math.Pi/3.06)
	r := rng.New(1)
	n := 64000
	x := make([]float64, n)
	v := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() * g.Length()
		v[i] = 0.2 * r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Drift(x, v, 0.2, g)
	}
}
