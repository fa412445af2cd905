// Package poisson provides solvers for the electrostatic field equations
// of the PIC cycle (paper Eqs. 3-4):
//
//	d2(phi)/dx2 = -rho / eps0,   E = -d(phi)/dx.
//
// Several solvers are implemented:
//
//   - Spectral: exact solve of the continuum operator in Fourier space on
//     the periodic grid (the default for the two-stream problem).
//   - SpectralFD: Fourier solve of the *discrete* three-point Laplacian
//     (same modes, finite-difference-consistent eigenvalues).
//   - CG: matrix-free conjugate gradient on the three-point Laplacian with
//     the zero-mean constraint handled by projection.
//   - SOR: successive over-relaxation (Gauss-Seidel when omega = 1).
//
// On a periodic domain the Poisson problem is solvable only for zero-mean
// rho and determines phi up to a constant; solvers normalize to a
// zero-mean potential. The paper's configuration has an exactly neutral
// plasma (electrons plus a uniform ion background), so the projection is
// a numerical safety net rather than a physics change.
package poisson

import (
	"fmt"
	"math"

	"dlpic/internal/fft"
	"dlpic/internal/grid"
)

// Solver solves the periodic Poisson problem on a fixed grid.
// Solve computes the potential phi from the charge density rho such that
// Laplacian(phi) = -rho/eps0 with zero-mean phi. Implementations may
// assume len(phi) == len(rho) == grid.N().
type Solver interface {
	// Solve writes the zero-mean potential into phi.
	Solve(phi, rho []float64) error
	// Name identifies the solver in logs and benchmarks.
	Name() string
}

// EFromPhi computes the electric field E = -grad(phi) with the centered
// difference on the periodic grid.
func EFromPhi(g *grid.Grid, e, phi []float64) {
	g.Gradient(e, phi)
	for i := range e {
		e[i] = -e[i]
	}
}

// SolveE is a convenience helper: solve for phi, then differentiate into
// E. scratch must have length g.N() and is clobbered (it holds phi).
func SolveE(s Solver, g *grid.Grid, e, rho, scratch []float64) error {
	if err := s.Solve(scratch, rho); err != nil {
		return err
	}
	EFromPhi(g, e, scratch)
	return nil
}

// ---------------------------------------------------------------------------
// Spectral solver (continuum symbol)

// Spectral solves the periodic Poisson equation exactly in Fourier space
// using the continuum eigenvalues -k^2. It is the reference field solver
// for the two-stream experiments.
type Spectral struct {
	g    *grid.Grid
	eps0 float64
	plan *fft.Plan
	spec []complex128
	// invK2[k] = 1/k_k^2 for k != 0, 0 for the mean mode.
	invK2 []float64
}

// NewSpectral builds a spectral solver on g with vacuum permittivity eps0
// (1 in the paper's dimensionless units).
func NewSpectral(g *grid.Grid, eps0 float64) *Spectral {
	n := g.N()
	s := &Spectral{
		g:     g,
		eps0:  eps0,
		plan:  fft.MustPlan(n),
		spec:  make([]complex128, n),
		invK2: make([]float64, n),
	}
	l := g.Length()
	for k := 1; k < n; k++ {
		m := k
		if m > n/2 {
			m -= n // negative frequencies
		}
		kk := 2 * math.Pi * float64(m) / l
		s.invK2[k] = 1 / (kk * kk)
	}
	return s
}

// Name implements Solver.
func (s *Spectral) Name() string { return "spectral" }

// Solve implements Solver.
func (s *Spectral) Solve(phi, rho []float64) error {
	n := s.g.N()
	if len(phi) != n || len(rho) != n {
		return fmt.Errorf("poisson: spectral solve length mismatch phi=%d rho=%d n=%d", len(phi), len(rho), n)
	}
	s.plan.ForwardReal(s.spec, rho)
	// phi_hat = rho_hat / (eps0 * k^2); zero out the mean mode.
	s.spec[0] = 0
	for k := 1; k < n; k++ {
		s.spec[k] *= complex(s.invK2[k]/s.eps0, 0)
	}
	s.plan.InverseReal(phi, s.spec)
	return nil
}

// ---------------------------------------------------------------------------
// Spectral solver with discrete (finite-difference) eigenvalues

// SpectralFD solves the discrete three-point Laplacian exactly in Fourier
// space: eigenvalue for mode k is -(4/dx^2) sin^2(pi k / N). Its output
// satisfies the same difference equations as CG/SOR to machine precision.
type SpectralFD struct {
	g      *grid.Grid
	eps0   float64
	plan   *fft.Plan
	spec   []complex128
	invEig []float64
}

// NewSpectralFD builds the discrete-symbol spectral solver.
func NewSpectralFD(g *grid.Grid, eps0 float64) *SpectralFD {
	n := g.N()
	s := &SpectralFD{
		g:      g,
		eps0:   eps0,
		plan:   fft.MustPlan(n),
		spec:   make([]complex128, n),
		invEig: make([]float64, n),
	}
	dx := g.Dx()
	for k := 1; k < n; k++ {
		sin := math.Sin(math.Pi * float64(k) / float64(n))
		eig := 4 / (dx * dx) * sin * sin
		s.invEig[k] = 1 / eig
	}
	return s
}

// Name implements Solver.
func (s *SpectralFD) Name() string { return "spectral-fd" }

// Solve implements Solver.
func (s *SpectralFD) Solve(phi, rho []float64) error {
	n := s.g.N()
	if len(phi) != n || len(rho) != n {
		return fmt.Errorf("poisson: spectral-fd solve length mismatch")
	}
	s.plan.ForwardReal(s.spec, rho)
	s.spec[0] = 0
	for k := 1; k < n; k++ {
		s.spec[k] *= complex(s.invEig[k]/s.eps0, 0)
	}
	s.plan.InverseReal(phi, s.spec)
	return nil
}

// ---------------------------------------------------------------------------
// Conjugate gradient

// CG solves the discrete periodic Poisson system with a matrix-free
// conjugate-gradient iteration. The periodic Laplacian is singular (the
// constant vector spans its null space); CG projects the right-hand side
// and iterates onto the zero-mean complement where the operator is SPD
// (after sign flip).
type CG struct {
	g       *grid.Grid
	eps0    float64
	tol     float64
	maxIter int
	r, p, q []float64

	// LastIterations reports the iteration count of the most recent Solve.
	LastIterations int
}

// NewCG builds a CG solver. tol is the relative residual target
// (default 1e-10 if <= 0); maxIter defaults to 10*N if <= 0.
func NewCG(g *grid.Grid, eps0, tol float64, maxIter int) *CG {
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10 * g.N()
	}
	n := g.N()
	return &CG{
		g: g, eps0: eps0, tol: tol, maxIter: maxIter,
		r: make([]float64, n), p: make([]float64, n), q: make([]float64, n),
	}
}

// Name implements Solver.
func (c *CG) Name() string { return "cg" }

// Solve implements Solver.
func (c *CG) Solve(phi, rho []float64) error {
	n := c.g.N()
	if len(phi) != n || len(rho) != n {
		return fmt.Errorf("poisson: cg solve length mismatch")
	}
	// System: A phi = b with A = -Laplacian (SPD on zero-mean subspace),
	// b = rho/eps0 projected to zero mean.
	b := c.r
	for i := range b {
		b[i] = rho[i] / c.eps0
	}
	c.g.SubtractMean(b)

	for i := range phi {
		phi[i] = 0
	}
	// r = b - A*0 = b  (already in c.r)
	copy(c.p, b)
	rs := dot(b, b)
	bNorm := math.Sqrt(rs)
	if bNorm == 0 {
		c.LastIterations = 0
		return nil
	}
	var it int
	for it = 0; it < c.maxIter; it++ {
		c.applyA(c.q, c.p)
		alpha := rs / dot(c.p, c.q)
		for i := range phi {
			phi[i] += alpha * c.p[i]
		}
		for i := range c.r {
			c.r[i] -= alpha * c.q[i]
		}
		rsNew := dot(c.r, c.r)
		if math.Sqrt(rsNew) <= c.tol*bNorm {
			it++
			break
		}
		beta := rsNew / rs
		for i := range c.p {
			c.p[i] = c.r[i] + beta*c.p[i]
		}
		rs = rsNew
	}
	c.LastIterations = it
	c.g.SubtractMean(phi)
	return nil
}

// applyA computes dst = -Laplacian(src) on the periodic grid.
func (c *CG) applyA(dst, src []float64) {
	c.g.Laplacian(dst, src)
	for i := range dst {
		dst[i] = -dst[i]
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ---------------------------------------------------------------------------
// SOR

// SOR solves the discrete periodic Poisson system with successive
// over-relaxation sweeps. omega = 1 degenerates to Gauss-Seidel.
type SOR struct {
	g       *grid.Grid
	eps0    float64
	omega   float64
	tol     float64
	maxIter int
	res     []float64

	// LastIterations reports the sweep count of the most recent Solve.
	LastIterations int
}

// NewSOR builds an SOR solver. omega must be in (0, 2); tol and maxIter
// default as in NewCG.
func NewSOR(g *grid.Grid, eps0, omega, tol float64, maxIter int) (*SOR, error) {
	if !(omega > 0 && omega < 2) {
		return nil, fmt.Errorf("poisson: SOR omega %v outside (0,2)", omega)
	}
	if tol <= 0 {
		tol = 1e-8
	}
	if maxIter <= 0 {
		maxIter = 200 * g.N()
	}
	return &SOR{g: g, eps0: eps0, omega: omega, tol: tol, maxIter: maxIter, res: make([]float64, g.N())}, nil
}

// Name implements Solver.
func (s *SOR) Name() string { return "sor" }

// Solve implements Solver.
func (s *SOR) Solve(phi, rho []float64) error {
	n := s.g.N()
	if len(phi) != n || len(rho) != n {
		return fmt.Errorf("poisson: sor solve length mismatch")
	}
	dx2 := s.g.Dx() * s.g.Dx()
	b := s.res // reuse as scratch for projected rhs
	for i := range b {
		b[i] = rho[i] / s.eps0
	}
	s.g.SubtractMean(b)
	var bNorm float64
	for _, v := range b {
		bNorm += v * v
	}
	bNorm = math.Sqrt(bNorm)
	if bNorm == 0 {
		for i := range phi {
			phi[i] = 0
		}
		s.LastIterations = 0
		return nil
	}
	for i := range phi {
		phi[i] = 0
	}
	var sweep int
	for sweep = 0; sweep < s.maxIter; sweep++ {
		// Discrete equation: (phi[i-1] - 2 phi[i] + phi[i+1])/dx2 = -b[i]
		// => phi[i] = (phi[i-1] + phi[i+1] + dx2*b[i]) / 2
		for i := 0; i < n; i++ {
			im := i - 1
			if im < 0 {
				im = n - 1
			}
			ip := i + 1
			if ip == n {
				ip = 0
			}
			gsUpdate := 0.5 * (phi[im] + phi[ip] + dx2*b[i])
			phi[i] += s.omega * (gsUpdate - phi[i])
		}
		// Convergence check every few sweeps (residual is O(n) work).
		if sweep%8 == 7 {
			var rNorm float64
			for i := 0; i < n; i++ {
				im := i - 1
				if im < 0 {
					im = n - 1
				}
				ip := i + 1
				if ip == n {
					ip = 0
				}
				r := (phi[im]-2*phi[i]+phi[ip])/dx2 + b[i]
				rNorm += r * r
			}
			if math.Sqrt(rNorm) <= s.tol*bNorm {
				sweep++
				break
			}
		}
	}
	s.LastIterations = sweep
	s.g.SubtractMean(phi)
	return nil
}
