// Package pic implements the traditional explicit electrostatic
// Particle-in-Cell method of the paper's §II (Fig. 1) on a 1D periodic
// domain, with the field-solver stage factored behind the FieldMethod
// interface so the DL-based method of §III (internal/core) can replace
// it while sharing the interpolation, mover and diagnostics verbatim.
//
// The computational cycle per step is:
//
//  1. gather: interpolate E from the grid to particle positions,
//  2. push: leapfrog kick (v) and drift (x),
//  3. field: recompute the grid E from the new particle state —
//     deposit rho and solve Poisson for the traditional method, or
//     bin phase space and run the neural network for the DL method.
//
// Normalization (paper §III): dimensionless units with eps0 = 1 and
// plasma frequency Wp; the electron charge-to-mass ratio is QOverM = -1
// ("q/m equal to one" in magnitude). The macro-particle charge follows
// from wp^2 = (n0 q / eps0)(q/m):
//
//	q_macro = -Wp^2 * eps0 * L / (QOverM<0 ? N : -N),  m_macro = q/(q/m),
//
// and a motionless uniform ion background of density +Wp^2*eps0
// neutralizes the box.
package pic

import (
	"errors"
	"fmt"
	"math"

	"dlpic/internal/diag"
	"dlpic/internal/fft"
	"dlpic/internal/grid"
	"dlpic/internal/interp"
	"dlpic/internal/mover"
	"dlpic/internal/parallel"
	"dlpic/internal/particle"
	"dlpic/internal/poisson"
	"dlpic/internal/rng"
)

// Config collects every knob of a two-stream PIC run. The zero value is
// not runnable; call Default() for the paper's §III configuration and
// override fields as needed.
type Config struct {
	// Cells is the number of grid cells (paper: 64).
	Cells int
	// Length is the box size L (paper: 2*pi/3.06).
	Length float64
	// Dt is the time step (paper: 0.2).
	Dt float64
	// ParticlesPerCell sets the electron count N = Cells * ParticlesPerCell
	// (paper: 1000).
	ParticlesPerCell int
	// V0 and Vth are the beam drift and thermal speeds.
	V0, Vth float64
	// PerturbAmp seeds mode PerturbMode with a position displacement; 0
	// means noise-seeded (as in the paper).
	PerturbAmp  float64
	PerturbMode int
	// QuietStart loads deterministic uniform positions per beam.
	QuietStart bool
	// Scheme selects the particle-grid interpolation (paper: NGP for the
	// phase-space binning, CIC default here for the field loop).
	Scheme interp.Scheme
	// Solver names the Poisson solver: "spectral" (default),
	// "spectral-fd", "cg" or "sor".
	Solver string
	// Eps0 is the vacuum permittivity (1 in dimensionless units).
	Eps0 float64
	// Wp is the plasma frequency (1 in dimensionless units).
	Wp float64
	// QOverM is the electron charge-to-mass ratio (-1 dimensionless).
	QOverM float64
	// DiagMode is the field Fourier mode monitored in diagnostics
	// (1 = the most-unstable mode of the paper's box).
	DiagMode int
	// Seed drives all randomness of the run.
	Seed uint64
	// EnergyConserving switches the gather to the energy-conserving
	// differencing (E averaged from potential differences on the two
	// faces of the particle's cell) instead of the momentum-conserving
	// centered-difference field. Extension beyond the paper.
	EnergyConserving bool
}

// Default returns the paper's §III configuration: 64 cells, 1000
// particles/cell, L = 2*pi/3.06, dt = 0.2, v0 = 0.2, CIC, spectral solve.
func Default() Config {
	return Config{
		Cells:            64,
		Length:           2 * math.Pi / 3.06,
		Dt:               0.2,
		ParticlesPerCell: 1000,
		V0:               0.2,
		Vth:              0.025,
		Scheme:           interp.CIC,
		Solver:           "spectral",
		Eps0:             1,
		Wp:               1,
		QOverM:           -1,
		DiagMode:         1,
		Seed:             1,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Cells < 2:
		return fmt.Errorf("pic: Cells = %d, need >= 2", c.Cells)
	case !(c.Length > 0):
		return fmt.Errorf("pic: Length = %v, need > 0", c.Length)
	case !(c.Dt > 0):
		return fmt.Errorf("pic: Dt = %v, need > 0", c.Dt)
	case c.ParticlesPerCell < 1:
		return fmt.Errorf("pic: ParticlesPerCell = %d, need >= 1", c.ParticlesPerCell)
	case c.Vth < 0:
		return fmt.Errorf("pic: Vth = %v, need >= 0", c.Vth)
	case !c.Scheme.Valid():
		return fmt.Errorf("pic: invalid interpolation scheme %v", c.Scheme)
	case !(c.Eps0 > 0):
		return fmt.Errorf("pic: Eps0 = %v, need > 0", c.Eps0)
	case !(c.Wp > 0):
		return fmt.Errorf("pic: Wp = %v, need > 0", c.Wp)
	case c.QOverM == 0:
		return fmt.Errorf("pic: QOverM must be non-zero")
	case c.DiagMode < 0 || c.DiagMode > c.Cells/2:
		return fmt.Errorf("pic: DiagMode = %d outside [0,%d]", c.DiagMode, c.Cells/2)
	}
	if c.Dt*c.Wp >= 2 {
		return fmt.Errorf("pic: leapfrog unstable: Wp*Dt = %v >= 2", c.Dt*c.Wp)
	}
	return nil
}

// NumParticles returns the total electron macro-particle count.
func (c Config) NumParticles() int { return c.Cells * c.ParticlesPerCell }

// MacroCharge returns the per-macro-particle charge implied by the
// normalization (negative for electrons with QOverM < 0).
func (c Config) MacroCharge() float64 {
	n := float64(c.NumParticles())
	// wp^2 = (N q / L) * (q/m) / eps0  =>  q = wp^2 eps0 L / (N (q/m)).
	return c.Wp * c.Wp * c.Eps0 * c.Length / (n * c.QOverM)
}

// FieldMethod computes the grid electric field from the current particle
// state. Implementations must write g.N() values into e.
//
// Implementations may keep internal scratch buffers, so a FieldMethod
// instance must be owned by exactly one Simulation: sharing one across
// simulations that step concurrently (e.g. in a sweep pool) is a data
// race. Build a fresh method per simulation instead.
type FieldMethod interface {
	// ComputeField updates e from the simulation's particle state. The
	// simulation exposes its grid, particles and scratch arrays; the
	// traditional method also refreshes sim.Rho and sim.Phi.
	ComputeField(sim *Simulation, e []float64) error
	// Name identifies the method in logs and experiment tables.
	Name() string
}

// Simulation is a running PIC system: particles, fields and the pluggable
// field method, advanced with Step.
type Simulation struct {
	Cfg Config
	G   *grid.Grid
	P   *particle.Population

	// Grid fields, length Cells. Rho and Phi are refreshed only by field
	// methods that compute them (the traditional solve); E is always the
	// current field.
	Rho, Phi, E []float64

	// Ep is the per-particle gathered field (scratch, length N).
	Ep []float64

	// IonRho is the uniform neutralizing background density (+Wp^2*Eps0).
	IonRho float64

	method   FieldMethod
	plan     *fft.Plan
	stepN    int
	time     float64
	lastKick mover.KickResult
	rng      *rng.Source
}

// errTraditionalOnly marks a Config option that only the traditional
// field method honours, set for another method.
var errTraditionalOnly = errors.New("option applies to the traditional field method only")

// checkMethodOptions refuses the Config options a non-traditional field
// method would silently ignore. Only TraditionalField solves Poisson's
// equation, so only it reads Solver, and only it writes the potential
// Phi that the energy-conserving gather differences: with any other
// method that gather reads zeros and the particles free-stream.
func checkMethodOptions(cfg Config, method FieldMethod) error {
	if _, ok := method.(*TraditionalField); ok {
		return nil
	}
	switch {
	case cfg.EnergyConserving:
		return fmt.Errorf("pic: EnergyConserving with the %s method: %w", method.Name(), errTraditionalOnly)
	case cfg.Solver != "" && cfg.Solver != "spectral":
		return fmt.Errorf("pic: Solver %q with the %s method: %w", cfg.Solver, method.Name(), errTraditionalOnly)
	}
	return nil
}

// New builds a simulation with the given field method (nil selects the
// traditional deposit+Poisson method), loads the two-stream population
// and computes the initial self-consistent field, then de-staggers the
// leapfrog velocities by half a step. EnergyConserving and a
// non-default Solver are refused with any method but the traditional
// one.
func New(cfg Config, method FieldMethod) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := grid.New(cfg.Cells, cfg.Length)
	if err != nil {
		return nil, err
	}
	if method == nil {
		method, err = NewTraditionalField(cfg, g)
		if err != nil {
			return nil, err
		}
	} else if err := checkMethodOptions(cfg, method); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	q := cfg.MacroCharge()
	m := q / cfg.QOverM
	pop, err := particle.LoadTwoStream(particle.TwoStreamOpts{
		N: cfg.NumParticles(), L: cfg.Length,
		V0: cfg.V0, Vth: cfg.Vth,
		PerturbAmp: cfg.PerturbAmp, PerturbMode: cfg.PerturbMode,
		Quiet:  cfg.QuietStart,
		Charge: q, Mass: m,
	}, r)
	if err != nil {
		return nil, err
	}
	sim := &Simulation{
		Cfg:    cfg,
		G:      g,
		P:      pop,
		Rho:    make([]float64, cfg.Cells),
		Phi:    make([]float64, cfg.Cells),
		E:      make([]float64, cfg.Cells),
		Ep:     make([]float64, pop.N()),
		IonRho: cfg.Wp * cfg.Wp * cfg.Eps0,
		method: method,
		plan:   fft.MustPlan(cfg.Cells),
		rng:    r,
	}
	if err := sim.method.ComputeField(sim, sim.E); err != nil {
		return nil, fmt.Errorf("pic: initial field solve: %w", err)
	}
	// De-stagger: v^{-1/2} = v^0 - (q/m) E^0 dt / 2.
	sim.gather()
	mover.KickHalf(pop.V, sim.Ep, pop.QOverM, -cfg.Dt)
	return sim, nil
}

// Method returns the active field method.
func (s *Simulation) Method() FieldMethod { return s.method }

// Time returns the current simulation time (Step * Dt).
func (s *Simulation) Time() float64 { return s.time }

// gather interpolates the current grid field to the particles.
func (s *Simulation) gather() {
	if s.Cfg.EnergyConserving {
		s.gatherEnergyConserving()
		return
	}
	interp.Gather(s.Cfg.Scheme, s.G, s.E, s.P.X, s.Ep)
}

// gatherEnergyConserving evaluates the field at particles from potential
// differences across the particle's cell faces (the classic
// energy-conserving differencing of Birdsall & Langdon §10): with NGP
// weighting of E defined on faces, E_p = (phi[i] - phi[i+1]) / dx for
// the cell containing the particle.
func (s *Simulation) gatherEnergyConserving() {
	n := s.G.N()
	dx := s.G.Dx()
	parallel.For(len(s.P.X), func(start, end int) {
		for p := start; p < end; p++ {
			i := s.G.CellOf(s.P.X[p])
			ip := i + 1
			if ip == n {
				ip = 0
			}
			s.Ep[p] = (s.Phi[i] - s.Phi[ip]) / dx
		}
	})
}

// Step advances the system by one time step and returns the diagnostics
// sample for the time level at the *start* of the step (the level at
// which the current E field and time-centered kinetic energy coincide).
func (s *Simulation) Step() (diag.Sample, error) {
	cfg := s.Cfg
	// 1. Gather E^n at x^n.
	s.gather()
	// 2a. Kick v^{n-1/2} -> v^{n+1/2}, accumulating time-centered sums.
	kick := mover.Kick(s.P.V, s.Ep, s.P.QOverM, cfg.Dt)
	s.lastKick = kick
	sample := diag.Sample{
		Step:     s.stepN,
		Time:     s.time,
		Kinetic:  0.5 * s.P.Mass * kick.VProdSum,
		Field:    diag.FieldEnergy(s.G, s.E, cfg.Eps0),
		Momentum: s.P.Mass * kick.VMidSum,
		ModeAmp:  diag.ModeAmplitude(s.plan, s.E, cfg.DiagMode),
	}
	sample.Total = sample.Kinetic + sample.Field
	// 2b. Drift x^n -> x^{n+1}.
	mover.Drift(s.P.X, s.P.V, cfg.Dt, s.G)
	// 3. Field solve at the new positions.
	if err := s.method.ComputeField(s, s.E); err != nil {
		return sample, fmt.Errorf("pic: field solve at step %d: %w", s.stepN+1, err)
	}
	s.stepN++
	s.time += cfg.Dt
	return sample, nil
}

// Run advances n steps, recording diagnostics into rec (which may be
// nil). The optional callback is invoked after every step with the
// sample; returning a non-nil error aborts the run.
func (s *Simulation) Run(n int, rec *diag.Recorder, callback func(diag.Sample) error) error {
	if n < 0 {
		return errors.New("pic: negative step count")
	}
	for i := 0; i < n; i++ {
		sample, err := s.Step()
		if err != nil {
			return err
		}
		if rec != nil {
			rec.Add(sample)
		}
		if callback != nil {
			if err := callback(sample); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckFinite scans the particle and field state for NaN/Inf, returning a
// descriptive error if any is found. The DL-based field solver can in
// principle produce unbounded output on out-of-distribution inputs; the
// experiment harness calls this as a failure-injection guard.
func (s *Simulation) CheckFinite() error {
	for i, v := range s.E {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pic: non-finite E[%d] = %v at step %d", i, v, s.stepN)
		}
	}
	for i := range s.P.X {
		if math.IsNaN(s.P.X[i]) || math.IsNaN(s.P.V[i]) ||
			math.IsInf(s.P.X[i], 0) || math.IsInf(s.P.V[i], 0) {
			return fmt.Errorf("pic: non-finite particle %d (x=%v v=%v) at step %d",
				i, s.P.X[i], s.P.V[i], s.stepN)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Traditional field method (deposit + Poisson)

// TraditionalField implements the paper's Fig. 1 field-solver stage:
// deposit the electron charge density with the configured interpolation
// scheme, add the neutralizing ion background, solve the Poisson
// equation for phi, and differentiate for E.
type TraditionalField struct {
	solver poisson.Solver
}

// NewTraditionalField builds the deposit+Poisson field method for cfg.
func NewTraditionalField(cfg Config, g *grid.Grid) (*TraditionalField, error) {
	var solver poisson.Solver
	switch cfg.Solver {
	case "", "spectral":
		solver = poisson.NewSpectral(g, cfg.Eps0)
	case "spectral-fd":
		solver = poisson.NewSpectralFD(g, cfg.Eps0)
	case "cg":
		solver = poisson.NewCG(g, cfg.Eps0, 0, 0)
	case "sor":
		var err error
		solver, err = poisson.NewSOR(g, cfg.Eps0, 1.7, 0, 0)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("pic: unknown Poisson solver %q", cfg.Solver)
	}
	return &TraditionalField{solver: solver}, nil
}

// Name implements FieldMethod.
func (t *TraditionalField) Name() string { return "traditional" }

// ComputeField implements FieldMethod.
func (t *TraditionalField) ComputeField(sim *Simulation, e []float64) error {
	interp.Deposit(sim.Cfg.Scheme, sim.G, sim.P.X, sim.P.Charge, sim.Rho)
	for i := range sim.Rho {
		sim.Rho[i] += sim.IonRho
	}
	if err := t.solver.Solve(sim.Phi, sim.Rho); err != nil {
		return err
	}
	poisson.EFromPhi(sim.G, e, sim.Phi)
	return nil
}
