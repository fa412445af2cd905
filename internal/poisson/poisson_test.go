package poisson

import (
	"math"
	"testing"

	"dlpic/internal/grid"
	"dlpic/internal/rng"
)

// Residual computes the max-norm residual |Laplacian(phi) + rho/eps0| of
// a candidate periodic solution: the oracle the solvers are held to.
func Residual(g *grid.Grid, phi, rho []float64, eps0 float64) float64 {
	n := g.N()
	lap := make([]float64, n)
	g.Laplacian(lap, phi)
	var maxRes float64
	mean := g.Mean(rho)
	for i := 0; i < n; i++ {
		r := math.Abs(lap[i] + (rho[i]-mean)/eps0)
		if r > maxRes {
			maxRes = r
		}
	}
	return maxRes
}

func sineRho(g *grid.Grid, mode int, amp float64) []float64 {
	rho := make([]float64, g.N())
	k := 2 * math.Pi * float64(mode) / g.Length()
	for i := range rho {
		rho[i] = amp * math.Sin(k*g.X(i))
	}
	return rho
}

func randomZeroMeanRho(r *rng.Source, g *grid.Grid) []float64 {
	rho := make([]float64, g.N())
	for i := range rho {
		rho[i] = r.NormFloat64()
	}
	g.SubtractMean(rho)
	return rho
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// The continuum spectral solver inverts single Fourier modes exactly:
// for rho = A sin(kx), phi = A/(eps0 k^2) sin(kx).
func TestSpectralSingleModeExact(t *testing.T) {
	g := grid.MustNew(64, 2*math.Pi/3.06)
	s := NewSpectral(g, 1.0)
	for _, mode := range []int{1, 2, 5} {
		amp := 0.3
		rho := sineRho(g, mode, amp)
		phi := make([]float64, g.N())
		if err := s.Solve(phi, rho); err != nil {
			t.Fatal(err)
		}
		k := 2 * math.Pi * float64(mode) / g.Length()
		for i := range phi {
			want := amp / (k * k) * math.Sin(k*g.X(i))
			if math.Abs(phi[i]-want) > 1e-12*amp/(k*k)*100 {
				t.Fatalf("mode %d, i=%d: phi=%v want=%v", mode, i, phi[i], want)
			}
		}
	}
}

func TestSpectralEps0Scaling(t *testing.T) {
	g := grid.MustNew(32, 1.0)
	rho := sineRho(g, 1, 1.0)
	phi1 := make([]float64, g.N())
	phi2 := make([]float64, g.N())
	if err := NewSpectral(g, 1.0).Solve(phi1, rho); err != nil {
		t.Fatal(err)
	}
	if err := NewSpectral(g, 2.0).Solve(phi2, rho); err != nil {
		t.Fatal(err)
	}
	for i := range phi1 {
		if math.Abs(phi1[i]-2*phi2[i]) > 1e-12 {
			t.Fatalf("eps0 scaling broken at %d: %v vs %v", i, phi1[i], phi2[i])
		}
	}
}

// SpectralFD satisfies the discrete difference equation to machine
// precision for arbitrary zero-mean right-hand sides.
func TestSpectralFDResidualProperty(t *testing.T) {
	g := grid.MustNew(48, 3.0)
	s := NewSpectralFD(g, 1.0)
	r := rng.New(1)
	f := func() bool {
		rho := randomZeroMeanRho(r, g)
		phi := make([]float64, g.N())
		if err := s.Solve(phi, rho); err != nil {
			return false
		}
		return Residual(g, phi, rho, 1.0) < 1e-9
	}
	for i := 0; i < 25; i++ {
		if !f() {
			t.Fatal("spectral-fd residual too large")
		}
	}
}

func TestCGMatchesSpectralFD(t *testing.T) {
	g := grid.MustNew(64, 2.0)
	fd := NewSpectralFD(g, 1.0)
	cg := NewCG(g, 1.0, 1e-12, 0)
	r := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		rho := randomZeroMeanRho(r, g)
		phiFD := make([]float64, g.N())
		phiCG := make([]float64, g.N())
		if err := fd.Solve(phiFD, rho); err != nil {
			t.Fatal(err)
		}
		if err := cg.Solve(phiCG, rho); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(phiFD, phiCG); d > 1e-8 {
			t.Fatalf("trial %d: CG and spectral-fd differ by %v", trial, d)
		}
		if cg.LastIterations <= 0 {
			t.Fatalf("CG reported %d iterations", cg.LastIterations)
		}
	}
}

func TestSORMatchesSpectralFD(t *testing.T) {
	g := grid.MustNew(32, 2.0)
	fd := NewSpectralFD(g, 1.0)
	sor, err := NewSOR(g, 1.0, 1.7, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	rho := randomZeroMeanRho(r, g)
	phiFD := make([]float64, g.N())
	phiSOR := make([]float64, g.N())
	if err := fd.Solve(phiFD, rho); err != nil {
		t.Fatal(err)
	}
	if err := sor.Solve(phiSOR, rho); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(phiFD, phiSOR); d > 1e-6 {
		t.Fatalf("SOR and spectral-fd differ by %v after %d sweeps", d, sor.LastIterations)
	}
}

func TestSOROmegaValidation(t *testing.T) {
	g := grid.MustNew(8, 1.0)
	for _, omega := range []float64{0, -1, 2, 2.5} {
		if _, err := NewSOR(g, 1.0, omega, 0, 0); err == nil {
			t.Errorf("NewSOR(omega=%v) should fail", omega)
		}
	}
}

// The solution of the periodic problem is defined up to a constant; all
// solvers return the zero-mean representative.
func TestSolversReturnZeroMeanPhi(t *testing.T) {
	g := grid.MustNew(32, 1.5)
	r := rng.New(4)
	rho := randomZeroMeanRho(r, g)
	sor, _ := NewSOR(g, 1.0, 1.5, 0, 0)
	solvers := []Solver{NewSpectral(g, 1.0), NewSpectralFD(g, 1.0), NewCG(g, 1.0, 0, 0), sor}
	for _, s := range solvers {
		phi := make([]float64, g.N())
		if err := s.Solve(phi, rho); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if m := math.Abs(g.Mean(phi)); m > 1e-10 {
			t.Errorf("%s: phi mean %v, want 0", s.Name(), m)
		}
	}
}

// Non-neutral rho (non-zero mean) must not blow up: solvers implicitly
// neutralize by projecting, matching the physics of a neutralizing
// background.
func TestSolversHandleNonNeutralRho(t *testing.T) {
	g := grid.MustNew(32, 1.0)
	rho := sineRho(g, 1, 1.0)
	for i := range rho {
		rho[i] += 5.0 // large DC offset
	}
	phiRef := make([]float64, g.N())
	if err := NewSpectral(g, 1.0).Solve(phiRef, sineRho(g, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	phi := make([]float64, g.N())
	if err := NewSpectral(g, 1.0).Solve(phi, rho); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(phi, phiRef); d > 1e-10 {
		t.Fatalf("DC offset changed the solution by %v", d)
	}
}

func TestEFromPhi(t *testing.T) {
	g := grid.MustNew(128, 2*math.Pi)
	phi := make([]float64, g.N())
	for i := range phi {
		phi[i] = math.Sin(g.X(i))
	}
	e := make([]float64, g.N())
	EFromPhi(g, e, phi)
	factor := math.Sin(g.Dx()) / g.Dx() // centered-difference attenuation
	for i := range e {
		want := -math.Cos(g.X(i)) * factor
		if math.Abs(e[i]-want) > 1e-10 {
			t.Fatalf("i=%d: E=%v want=%v", i, e[i], want)
		}
	}
}

func TestSolveEHelper(t *testing.T) {
	g := grid.MustNew(64, 2.0)
	s := NewSpectral(g, 1.0)
	rho := sineRho(g, 1, 0.5)
	e := make([]float64, g.N())
	scratch := make([]float64, g.N())
	if err := SolveE(s, g, e, rho, scratch); err != nil {
		t.Fatal(err)
	}
	// For rho = A sin(kx): phi = A/k^2 sin(kx), E = -A/k cos(kx) (with the
	// centered-difference attenuation factor on the gradient).
	k := 2 * math.Pi / g.Length()
	factor := math.Sin(k*g.Dx()) / (k * g.Dx())
	for i := range e {
		want := -0.5 / k * math.Cos(k*g.X(i)) * factor
		if math.Abs(e[i]-want) > 1e-10 {
			t.Fatalf("i=%d: E=%v want=%v", i, e[i], want)
		}
	}
}

func TestSolveLengthMismatchErrors(t *testing.T) {
	g := grid.MustNew(16, 1.0)
	sor, _ := NewSOR(g, 1.0, 1.5, 0, 0)
	solvers := []Solver{NewSpectral(g, 1.0), NewSpectralFD(g, 1.0), NewCG(g, 1.0, 0, 0), sor}
	for _, s := range solvers {
		if err := s.Solve(make([]float64, 8), make([]float64, 16)); err == nil {
			t.Errorf("%s: expected length-mismatch error", s.Name())
		}
	}
}

func BenchmarkSpectralSolve64(b *testing.B) {
	g := grid.MustNew(64, 2*math.Pi/3.06)
	s := NewSpectral(g, 1.0)
	rho := randomZeroMeanRho(rng.New(1), g)
	phi := make([]float64, g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Solve(phi, rho); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGSolve64(b *testing.B) {
	g := grid.MustNew(64, 2*math.Pi/3.06)
	s := NewCG(g, 1.0, 1e-10, 0)
	rho := randomZeroMeanRho(rng.New(1), g)
	phi := make([]float64, g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Solve(phi, rho); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSORSolve64(b *testing.B) {
	g := grid.MustNew(64, 2*math.Pi/3.06)
	s, _ := NewSOR(g, 1.0, 1.7, 1e-8, 0)
	rho := randomZeroMeanRho(rng.New(1), g)
	phi := make([]float64, g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Solve(phi, rho); err != nil {
			b.Fatal(err)
		}
	}
}
