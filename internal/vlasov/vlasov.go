// Package vlasov implements a 1D1V Vlasov-Poisson solver — the
// noise-free kinetic substrate the paper's discussion (§VII) proposes
// for generating higher-quality training data: "more accurate training
// data sets can be obtained by running Vlasov codes that are not
// affected by the PIC numerical noise."
//
// The solver is semi-Lagrangian with Strang splitting:
//
//	half x-advection:  f(x, v) <- f(x - v dt/2, v)      (spectral shift)
//	field solve:       rho(x) = q Int f dv + rho_ion;  E from Poisson
//	full v-advection:  f(x, v) <- f(x, v - (q/m) E(x) dt)  (cubic)
//	half x-advection again.
//
// The x-advection is exact for band-limited f (FFT phase shift on the
// periodic box); the v-advection uses cubic Lagrange interpolation with
// zero inflow at the velocity boundaries. The distribution lives on the
// same (x, v) grid the DL-PIC phase-space histograms use, so a Vlasov
// run can feed the dataset pipeline directly (see Counts).
package vlasov

import (
	"fmt"
	"math"

	"dlpic/internal/diag"
	"dlpic/internal/fft"
	"dlpic/internal/grid"
	"dlpic/internal/parallel"
	"dlpic/internal/poisson"
)

// Config describes a Vlasov-Poisson system on [0, L) x [VMin, VMax].
type Config struct {
	// NX, NV are the phase-space resolution (NX also the field grid).
	NX, NV int
	// Length is the periodic box size; VMin/VMax the velocity window.
	Length     float64
	VMin, VMax float64
	// Dt is the time step.
	Dt float64
	// Wp is the plasma frequency; Eps0 the permittivity; QOverM the
	// electron charge-to-mass ratio (same conventions as pic.Config).
	Wp, Eps0, QOverM float64
	// DiagMode is the monitored field mode.
	DiagMode int
}

// Default returns a configuration matching the paper's box with a
// 64x128 phase-space grid (finer in v than the DL histogram, so the
// beams are resolved).
func Default() Config {
	return Config{
		NX: 64, NV: 128,
		Length: 2 * math.Pi / 3.06, VMin: -0.8, VMax: 0.8,
		Dt: 0.1, Wp: 1, Eps0: 1, QOverM: -1,
		DiagMode: 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NX < 4 || c.NV < 4:
		return fmt.Errorf("vlasov: grid %dx%d too small", c.NX, c.NV)
	case !(c.Length > 0):
		return fmt.Errorf("vlasov: non-positive box %v", c.Length)
	case !(c.VMax > c.VMin):
		return fmt.Errorf("vlasov: empty velocity window [%v,%v]", c.VMin, c.VMax)
	case !(c.Dt > 0):
		return fmt.Errorf("vlasov: non-positive dt %v", c.Dt)
	case !(c.Wp > 0) || !(c.Eps0 > 0):
		return fmt.Errorf("vlasov: non-positive wp/eps0")
	case c.QOverM == 0:
		return fmt.Errorf("vlasov: zero charge-to-mass ratio")
	case c.DiagMode < 0 || c.DiagMode > c.NX/2:
		return fmt.Errorf("vlasov: diag mode %d out of range", c.DiagMode)
	}
	return nil
}

// Solver evolves the electron distribution f(x, v).
type Solver struct {
	Cfg Config
	// F is the distribution, row-major [iv*NX + ix], in units where the
	// background density integrates to n0 = Wp^2 * Eps0 / (q/m * q)...
	// concretely: Int f dv = n0(x) with the neutralizing ion background
	// rho_ion = -q * n0_mean (the solver tracks charge internally).
	F []float64
	// E and Rho are the current field and charge density on the x grid.
	E, Rho []float64

	g       *grid.Grid
	dx, dv  float64
	poisson *poisson.Spectral
	phi     []float64
	planX   *fft.Plan
	// Per-row spectral buffers for x-advection.
	rowSpec []complex128
	// Charge per unit of f: the electron charge density is q*n with
	// q/m = QOverM and the normalization fixing wp.
	q, m float64

	stepN int
	time  float64
	plan  *fft.Plan
}

// TwoStreamInit configures the standard two-beam initial condition:
//
//	f0(x,v) = n0/2 [ M(v - V0) + M(v + V0) ] (1 + Amp cos(2 pi Mode x / L))
//
// with Maxwellians of width Vth (Vth must exceed ~one velocity cell so
// the beams are resolvable on the grid).
type TwoStreamInit struct {
	V0, Vth float64
	Amp     float64
	Mode    int
}

// New builds a solver with the two-stream initial condition.
func New(cfg Config, init TwoStreamInit) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dv := (cfg.VMax - cfg.VMin) / float64(cfg.NV)
	if init.Vth < dv {
		return nil, fmt.Errorf("vlasov: Vth=%v below velocity resolution %v (beams unresolvable)", init.Vth, dv)
	}
	if init.Mode < 0 || init.Mode > cfg.NX/2 {
		return nil, fmt.Errorf("vlasov: perturbation mode %d out of range", init.Mode)
	}
	g, err := grid.New(cfg.NX, cfg.Length)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Cfg: cfg,
		F:   make([]float64, cfg.NX*cfg.NV),
		E:   make([]float64, cfg.NX),
		Rho: make([]float64, cfg.NX),
		g:   g, dx: g.Dx(), dv: dv,
		poisson: poisson.NewSpectral(g, cfg.Eps0),
		phi:     make([]float64, cfg.NX),
		planX:   fft.MustPlan(cfg.NX),
		rowSpec: make([]complex128, cfg.NX),
		plan:    fft.MustPlan(cfg.NX),
	}
	// Normalization: wp^2 = n0 q^2 / (eps0 m) with q/m = QOverM gives
	// q*n0 = wp^2 eps0 / QOverM (signed electron charge density).
	// Track f as number density n0 = 1 and fold the charge into q.
	s.q = cfg.Wp * cfg.Wp * cfg.Eps0 / cfg.QOverM // charge density per unit n
	s.m = s.q / cfg.QOverM

	// Fill the two-stream distribution with mean density 1.
	norm := 1.0 / (2 * init.Vth * math.Sqrt(2*math.Pi))
	for iv := 0; iv < cfg.NV; iv++ {
		v := cfg.VMin + (float64(iv)+0.5)*dv
		mPlus := math.Exp(-(v - init.V0) * (v - init.V0) / (2 * init.Vth * init.Vth))
		mMinus := math.Exp(-(v + init.V0) * (v + init.V0) / (2 * init.Vth * init.Vth))
		base := norm * (mPlus + mMinus)
		for ix := 0; ix < cfg.NX; ix++ {
			x := g.X(ix)
			pert := 1 + init.Amp*math.Cos(2*math.Pi*float64(init.Mode)*x/cfg.Length)
			s.F[iv*cfg.NX+ix] = base * pert
		}
	}
	// Renormalize the discrete integral to exactly density 1 on average
	// (the Gaussian tails truncated by the window would otherwise shift
	// the plasma frequency).
	var tot float64
	for _, fv := range s.F {
		tot += fv
	}
	mean := tot * dv / float64(cfg.NX)
	scale := 1 / mean
	for i := range s.F {
		s.F[i] *= scale
	}
	if err := s.solveField(); err != nil {
		return nil, err
	}
	return s, nil
}

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// VCenter returns the center velocity of row iv.
func (s *Solver) VCenter(iv int) float64 {
	return s.Cfg.VMin + (float64(iv)+0.5)*s.dv
}

// solveField recomputes Rho and E from the current distribution.
func (s *Solver) solveField() error {
	nx, nv := s.Cfg.NX, s.Cfg.NV
	for ix := 0; ix < nx; ix++ {
		s.Rho[ix] = 0
	}
	for iv := 0; iv < nv; iv++ {
		row := s.F[iv*nx : (iv+1)*nx]
		for ix, fv := range row {
			s.Rho[ix] += fv
		}
	}
	// Electron charge density + neutralizing background of the mean.
	var mean float64
	for ix := 0; ix < nx; ix++ {
		s.Rho[ix] *= s.dv * s.q
		mean += s.Rho[ix]
	}
	mean /= float64(nx)
	for ix := 0; ix < nx; ix++ {
		s.Rho[ix] -= mean
	}
	return poisson.SolveE(s.poisson, s.g, s.E, s.Rho, s.phi)
}

// advectX shifts every velocity row by -v*dt in x with an exact spectral
// phase shift (periodic boundary).
func (s *Solver) advectX(dt float64) {
	nx, nv := s.Cfg.NX, s.Cfg.NV
	l := s.Cfg.Length
	parallel.ForThreshold(nv, 4, func(start, end int) {
		spec := make([]complex128, nx)
		plan := fft.MustPlan(nx)
		for iv := start; iv < end; iv++ {
			row := s.F[iv*nx : (iv+1)*nx]
			shift := s.VCenter(iv) * dt
			plan.ForwardReal(spec, row)
			for k := 1; k < nx; k++ {
				m := k
				if m > nx/2 {
					m -= nx
				}
				ang := -2 * math.Pi * float64(m) * shift / l
				spec[k] *= complex(math.Cos(ang), math.Sin(ang))
			}
			if nx%2 == 0 {
				// Keep the Nyquist mode real (its shifted phase is
				// ambiguous); drop its imaginary part.
				spec[nx/2] = complex(real(spec[nx/2]), 0)
			}
			plan.InverseReal(row, spec)
		}
	})
}

// advectV shifts every spatial column by -(q/m) E(x) dt in v using cubic
// Lagrange interpolation; f is treated as zero outside the window.
func (s *Solver) advectV(dt float64) {
	nx, nv := s.Cfg.NX, s.Cfg.NV
	parallel.ForThreshold(nx, 4, func(start, end int) {
		col := make([]float64, nv)
		for ix := start; ix < end; ix++ {
			shift := s.Cfg.QOverM * s.E[ix] * dt / s.dv // in cells
			for iv := 0; iv < nv; iv++ {
				col[iv] = s.F[iv*nx+ix]
			}
			for iv := 0; iv < nv; iv++ {
				// Departure point in cell units.
				y := float64(iv) - shift
				j := int(math.Floor(y))
				frac := y - float64(j)
				// Cubic Lagrange on j-1 .. j+2.
				fm1 := sampleCol(col, j-1)
				f0 := sampleCol(col, j)
				f1 := sampleCol(col, j+1)
				f2 := sampleCol(col, j+2)
				a := frac
				val := fm1*(-a*(a-1)*(a-2)/6) +
					f0*((a+1)*(a-1)*(a-2)/2) +
					f1*(-(a+1)*a*(a-2)/2) +
					f2*((a+1)*a*(a-1)/6)
				s.F[iv*nx+ix] = val
			}
		}
	})
}

func sampleCol(col []float64, j int) float64 {
	if j < 0 || j >= len(col) {
		return 0
	}
	return col[j]
}

// Step advances one time step with Strang splitting and returns the
// diagnostics sample at the *new* time level.
func (s *Solver) Step() (diag.Sample, error) {
	dt := s.Cfg.Dt
	s.advectX(dt / 2)
	if err := s.solveField(); err != nil {
		return diag.Sample{}, err
	}
	s.advectV(dt)
	s.advectX(dt / 2)
	if err := s.solveField(); err != nil {
		return diag.Sample{}, err
	}
	s.stepN++
	s.time += dt
	return s.sample(), nil
}

// sample assembles the current diagnostics.
func (s *Solver) sample() diag.Sample {
	nx, nv := s.Cfg.NX, s.Cfg.NV
	var kin, mom float64
	for iv := 0; iv < nv; iv++ {
		v := s.VCenter(iv)
		row := s.F[iv*nx : (iv+1)*nx]
		var rowSum float64
		for _, fv := range row {
			rowSum += fv
		}
		kin += 0.5 * v * v * rowSum
		mom += v * rowSum
	}
	cell := s.dx * s.dv
	kin *= cell * s.m
	mom *= cell * s.m
	sampleOut := diag.Sample{
		Step: s.stepN, Time: s.time,
		Kinetic:  kin,
		Field:    diag.FieldEnergy(s.g, s.E, s.Cfg.Eps0),
		Momentum: mom,
		ModeAmp:  diag.ModeAmplitude(s.plan, s.E, s.Cfg.DiagMode),
	}
	sampleOut.Total = sampleOut.Kinetic + sampleOut.Field
	return sampleOut
}

// Run advances n steps, recording diagnostics.
func (s *Solver) Run(n int, rec *diag.Recorder) error {
	if n < 0 {
		return fmt.Errorf("vlasov: negative step count")
	}
	for i := 0; i < n; i++ {
		sample, err := s.Step()
		if err != nil {
			return err
		}
		if rec != nil {
			rec.Add(sample)
		}
	}
	return nil
}

// Mass returns the total integral of f over phase space (conserved by
// the exact equations; the cubic v-advection loses a little at the
// window edges).
func (s *Solver) Mass() float64 {
	var tot float64
	for _, fv := range s.F {
		tot += fv
	}
	return tot * s.dx * s.dv
}

// Counts converts the distribution to equivalent macro-particle bin
// counts for a virtual population of np particles, matching the scale of
// the PIC phase-space histograms: counts[i] = f[i] * dx * dv * np /
// mass. This is the bridge that lets Vlasov runs feed the DL training
// pipeline (the paper's suggested noise-free corpus).
func (s *Solver) Counts(np int, out []float64) error {
	if len(out) != len(s.F) {
		return fmt.Errorf("vlasov: Counts length %d, want %d", len(out), len(s.F))
	}
	mass := s.Mass()
	if mass <= 0 {
		return fmt.Errorf("vlasov: non-positive mass %v", mass)
	}
	scale := float64(np) * s.dx * s.dv / mass
	for i, fv := range s.F {
		out[i] = fv * scale
	}
	return nil
}

// MinF returns the most negative value of f (a quality metric: the
// semi-Lagrangian cubic interpolation can undershoot; large negative
// excursions signal under-resolution).
func (s *Solver) MinF() float64 {
	minV := math.Inf(1)
	for _, fv := range s.F {
		if fv < minV {
			minV = fv
		}
	}
	return minV
}
