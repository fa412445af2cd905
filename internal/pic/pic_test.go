package pic

import (
	"errors"
	"math"
	"testing"

	"dlpic/internal/diag"
	"dlpic/internal/grid"
	"dlpic/internal/interp"
	"dlpic/internal/theory"
)

// fastConfig is a cheap configuration for unit tests: quiet start, cold
// beams, seeded mode 1, few particles.
func fastConfig() Config {
	cfg := Default()
	cfg.ParticlesPerCell = 20
	cfg.Vth = 0
	cfg.QuietStart = true
	cfg.PerturbAmp = 1e-4 * cfg.Length
	cfg.PerturbMode = 1
	return cfg
}

func TestDefaultConfigIsPaperSetup(t *testing.T) {
	cfg := Default()
	if cfg.Cells != 64 {
		t.Errorf("Cells = %d, want 64", cfg.Cells)
	}
	if math.Abs(cfg.Length-2*math.Pi/3.06) > 1e-12 {
		t.Errorf("Length = %v, want 2*pi/3.06", cfg.Length)
	}
	if cfg.Dt != 0.2 || cfg.ParticlesPerCell != 1000 || cfg.V0 != 0.2 {
		t.Errorf("paper parameters wrong: %+v", cfg)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"cells", func(c *Config) { c.Cells = 1 }},
		{"length", func(c *Config) { c.Length = 0 }},
		{"dt", func(c *Config) { c.Dt = 0 }},
		{"ppc", func(c *Config) { c.ParticlesPerCell = 0 }},
		{"vth", func(c *Config) { c.Vth = -1 }},
		{"scheme", func(c *Config) { c.Scheme = interp.Scheme(42) }},
		{"eps0", func(c *Config) { c.Eps0 = 0 }},
		{"wp", func(c *Config) { c.Wp = -1 }},
		{"qoverm", func(c *Config) { c.QOverM = 0 }},
		{"diagmode", func(c *Config) { c.DiagMode = 999 }},
		{"cfl", func(c *Config) { c.Dt = 3; c.Wp = 1 }},
	}
	for _, m := range mutations {
		cfg := Default()
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestMacroChargeNormalization(t *testing.T) {
	cfg := Default()
	q := cfg.MacroCharge()
	if q >= 0 {
		t.Fatalf("electron macro-charge %v should be negative", q)
	}
	// wp^2 = (N q / L) (q/m) / eps0 must hold.
	n := float64(cfg.NumParticles())
	wp2 := (n * q / cfg.Length) * cfg.QOverM / cfg.Eps0
	if math.Abs(wp2-cfg.Wp*cfg.Wp) > 1e-12 {
		t.Fatalf("normalization: wp^2 = %v, want %v", wp2, cfg.Wp*cfg.Wp)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := Default()
	cfg.Cells = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("expected error for bad config")
	}
	cfg = Default()
	cfg.Solver = "multigrid"
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("expected error for unknown solver")
	}
}

// zeroField is a non-traditional field method: it writes E = 0 and
// never touches Rho or Phi.
type zeroField struct{}

func (zeroField) ComputeField(_ *Simulation, e []float64) error {
	clear(e)
	return nil
}

func (zeroField) Name() string { return "zero" }

// TestNewRefusesTraditionalOnlyOptions pins that EnergyConserving and a
// non-default Solver are refused with a method that would ignore them,
// and still accepted with the traditional method, built in or explicit.
func TestNewRefusesTraditionalOnlyOptions(t *testing.T) {
	for _, opt := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"energy-conserving", func(c *Config) { c.EnergyConserving = true }},
		{"solver cg", func(c *Config) { c.Solver = "cg" }},
	} {
		cfg := fastConfig()
		opt.mutate(&cfg)
		if _, err := New(cfg, zeroField{}); !errors.Is(err, errTraditionalOnly) {
			t.Fatalf("%s with a non-traditional method: got %v, want errTraditionalOnly", opt.name, err)
		}
		if _, err := New(cfg, nil); err != nil {
			t.Fatalf("%s with the built-in traditional method: %v", opt.name, err)
		}
		g, err := grid.New(cfg.Cells, cfg.Length)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := NewTraditionalField(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg, tf); err != nil {
			t.Fatalf("%s with an explicit traditional method: %v", opt.name, err)
		}
	}
	for _, solver := range []string{"", "spectral"} {
		cfg := fastConfig()
		cfg.Solver = solver
		if _, err := New(cfg, zeroField{}); err != nil {
			t.Fatalf("default solver %q with a non-traditional method: %v", solver, err)
		}
	}
}

func TestInitialChargeNeutrality(t *testing.T) {
	cfg := fastConfig()
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Total rho (electrons + background) integrates to ~0.
	if tot := sim.G.Integral(sim.Rho); math.Abs(tot) > 1e-9 {
		t.Fatalf("net charge %v, want ~0", tot)
	}
}

func TestQuietColdStartHasTinyInitialField(t *testing.T) {
	cfg := fastConfig()
	cfg.PerturbAmp = 0 // no seed: uniform quiet start is exactly neutral
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sim.E {
		if math.Abs(e) > 1e-9 {
			t.Fatalf("E[%d] = %v, want ~0 for unperturbed quiet start", i, e)
		}
	}
}

func TestStepAdvancesTime(t *testing.T) {
	sim, err := New(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if s.Step != i {
			t.Fatalf("sample step %d, want %d", s.Step, i)
		}
		if math.Abs(s.Time-float64(i)*sim.Cfg.Dt) > 1e-12 {
			t.Fatalf("sample time %v, want %v", s.Time, float64(i)*sim.Cfg.Dt)
		}
	}
	if sim.stepN != 5 {
		t.Fatalf("step count = %d", sim.stepN)
	}
	if math.Abs(sim.Time()-1.0) > 1e-12 {
		t.Fatalf("Time = %v, want 1.0", sim.Time())
	}
}

func TestRunRecordsSamples(t *testing.T) {
	sim, err := New(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	calls := 0
	if err := sim.Run(10, &rec, func(diag.Sample) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 10 || calls != 10 {
		t.Fatalf("rec=%d calls=%d, want 10/10", rec.Len(), calls)
	}
	if err := sim.Run(-1, nil, nil); err == nil {
		t.Fatal("negative step count should error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		sim, err := New(fastConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var rec diag.Recorder
		if err := sim.Run(20, &rec, nil); err != nil {
			t.Fatal(err)
		}
		tot, _ := rec.Series("total")
		return tot
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic run at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The headline physics test: the seeded mode grows at the linear-theory
// rate gamma ~ wp/sqrt(8) for the paper's box (K = 0.612).
func TestTwoStreamGrowthRateMatchesTheory(t *testing.T) {
	cfg := fastConfig()
	cfg.ParticlesPerCell = 100
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(150, &rec, nil); err != nil { // t = 30
		t.Fatal(err)
	}
	amps, _ := rec.Series("mode")
	times := rec.Times()
	t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.01, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := diag.FitGrowthRate(times, amps, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	ts := theory.TwoStream{Wp: cfg.Wp, V0: cfg.V0}
	want := ts.GrowthRate(2 * math.Pi / cfg.Length)
	if math.Abs(fit.Gamma-want)/want > 0.15 {
		t.Fatalf("growth rate %v, theory %v (%.1f%% off), window [%v,%v] R2=%v",
			fit.Gamma, want, 100*math.Abs(fit.Gamma-want)/want, t0, t1, fit.R2)
	}
	if fit.R2 < 0.98 {
		t.Fatalf("noisy linear phase: R2 = %v", fit.R2)
	}
}

// Momentum conservation of the traditional method (paper Fig. 5, bottom):
// CIC + symmetric solve keeps total momentum at the loading level.
func TestTraditionalMomentumConservation(t *testing.T) {
	cfg := fastConfig()
	cfg.ParticlesPerCell = 50
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(150, &rec, nil); err != nil {
		t.Fatal(err)
	}
	mom, _ := rec.Series("momentum")
	drift := math.Abs(diag.Drift(mom))
	// Scale: single-beam momentum magnitude.
	scale := sim.P.Mass * float64(sim.P.N()) / 2 * cfg.V0
	if drift/scale > 1e-6 {
		t.Fatalf("momentum drift %v (%.2e of beam scale %v)", drift, drift/scale, scale)
	}
}

// Energy variation stays bounded through the instability (paper reports
// ~2% for this setup; we allow 5% for the small test population).
func TestTraditionalEnergyBounded(t *testing.T) {
	cfg := fastConfig()
	cfg.ParticlesPerCell = 50
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(200, &rec, nil); err != nil {
		t.Fatal(err)
	}
	tot, _ := rec.Series("total")
	if v := diag.MaxRelativeVariation(tot); v > 0.05 {
		t.Fatalf("total energy variation %.3f%% > 5%%", 100*v)
	}
}

// Energy exchange: during the linear phase the field energy grows at
// 2*gamma while kinetic energy pays for it; total stays ~flat. Checks
// that the kinetic and field series are anti-correlated around growth.
func TestEnergyExchangeDuringInstability(t *testing.T) {
	cfg := fastConfig()
	cfg.ParticlesPerCell = 50
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(150, &rec, nil); err != nil {
		t.Fatal(err)
	}
	field, _ := rec.Series("field")
	kin, _ := rec.Series("kinetic")
	iPeak := 0
	for i, f := range field {
		if f > field[iPeak] {
			iPeak = i
		}
	}
	if field[iPeak] < 100*field[0] {
		t.Fatalf("field energy never grew: start %v peak %v", field[0], field[iPeak])
	}
	if !(kin[iPeak] < kin[0]) {
		t.Fatalf("kinetic energy did not decrease while field grew: %v -> %v", kin[0], kin[iPeak])
	}
}

// All Poisson solver backends produce the same physics.
func TestSolverBackendsAgree(t *testing.T) {
	growth := func(solver string) float64 {
		cfg := fastConfig()
		cfg.ParticlesPerCell = 30
		cfg.Solver = solver
		sim, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var rec diag.Recorder
		if err := sim.Run(120, &rec, nil); err != nil {
			t.Fatal(err)
		}
		amps, _ := rec.Series("mode")
		times := rec.Times()
		t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.01, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		fit, err := diag.FitGrowthRate(times, amps, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		return fit.Gamma
	}
	ref := growth("spectral")
	for _, s := range []string{"spectral-fd", "cg"} {
		if g := growth(s); math.Abs(g-ref)/ref > 0.05 {
			t.Errorf("solver %s growth %v vs spectral %v", s, g, ref)
		}
	}
}

// The interpolation schemes all reproduce the instability; higher order
// is smoother but the growth rate is scheme-robust.
func TestInterpolationSchemesAgree(t *testing.T) {
	growth := func(s interp.Scheme) float64 {
		cfg := fastConfig()
		cfg.ParticlesPerCell = 30
		cfg.Scheme = s
		sim, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var rec diag.Recorder
		if err := sim.Run(120, &rec, nil); err != nil {
			t.Fatal(err)
		}
		amps, _ := rec.Series("mode")
		times := rec.Times()
		t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.01, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		fit, err := diag.FitGrowthRate(times, amps, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		return fit.Gamma
	}
	ref := growth(interp.CIC)
	// NGP's zeroth-order weighting attenuates the field response more, so
	// its tolerance is wider; TSC is higher order and should track CIC.
	if g := growth(interp.NGP); math.Abs(g-ref)/ref > 0.25 {
		t.Errorf("scheme NGP growth %v vs CIC %v", g, ref)
	}
	if g := growth(interp.TSC); math.Abs(g-ref)/ref > 0.1 {
		t.Errorf("scheme TSC growth %v vs CIC %v", g, ref)
	}
}

// A stable configuration (v0 = 0.4, K > 1) must not develop the physical
// instability: mode 1 stays orders of magnitude below the unstable runs.
func TestStableBeamsNoLinearGrowth(t *testing.T) {
	cfg := fastConfig()
	cfg.V0 = 0.4
	cfg.ParticlesPerCell = 50
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(100, &rec, nil); err != nil { // t = 20
		t.Fatal(err)
	}
	amps, _ := rec.Series("mode")
	peak := 0.0
	for _, a := range amps {
		if a > peak {
			peak = a
		}
	}
	// Unstable runs reach E1 ~ 0.05-0.1 by t=20 from this seed; the
	// stable run should stay far below.
	if peak > 1e-2 {
		t.Fatalf("stable beams grew to E1 = %v", peak)
	}
}

func TestEnergyConservingGather(t *testing.T) {
	cfg := fastConfig()
	cfg.ParticlesPerCell = 50
	cfg.EnergyConserving = true
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(150, &rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	// The instability still develops and total energy stays bounded.
	amps, _ := rec.Series("mode")
	peak := 0.0
	for _, a := range amps {
		if a > peak {
			peak = a
		}
	}
	if peak < 1e-3 {
		t.Fatalf("energy-conserving run never grew: peak %v", peak)
	}
	tot, _ := rec.Series("total")
	if v := diag.MaxRelativeVariation(tot); v > 0.10 {
		t.Fatalf("energy variation %v too large", v)
	}
}

func TestCheckFinite(t *testing.T) {
	sim, err := New(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckFinite(); err != nil {
		t.Fatalf("fresh simulation reported non-finite state: %v", err)
	}
	sim.E[3] = math.NaN()
	if err := sim.CheckFinite(); err == nil {
		t.Fatal("NaN field not detected")
	}
	sim.E[3] = 0
	sim.P.V[0] = math.Inf(1)
	if err := sim.CheckFinite(); err == nil {
		t.Fatal("Inf velocity not detected")
	}
}

func TestFieldMethodName(t *testing.T) {
	sim, err := New(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Method().Name() != "traditional" {
		t.Fatalf("method name %q", sim.Method().Name())
	}
}
