package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"dlpic"
	"dlpic/internal/core"
	"dlpic/internal/diag"
	"dlpic/internal/fft"
	"dlpic/internal/interp"
	"dlpic/internal/mover"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/poisson"
	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// The two PIC workloads run the paper's validation scenario (64 cells,
// v0 = 0.2, vth = 0.025, spectral solve, noise-seeded) and differ only
// in the field method, so pic_dl / pic_trad is the paper's comparison.

const (
	picSteps     = 200
	picFullPPC   = 1000
	picQuickPPC  = 40
	picQuickStep = 160
	// Per-run bounds on total-energy variation: the traditional cycle
	// conserves to ~0.4 %; the DL cycle with the small fixture sits
	// near 0.2 and only has to stay bounded.
	tradEnergyBound = 0.02
	dlEnergyBound   = 1.0
	// The median fitted growth rate of a run's ops must be within this
	// share of cold linear theory. Single noise-seeded runs scatter too
	// much for a per-op bound (about 1 in 12 seeds lands 25 % off), so
	// per op the traditional fit only has to succeed with a positive
	// rate, and the DL cycle's median rate only has to be positive.
	gammaTolerance = 0.25
)

func picConfig(e *env) (pic.Config, int) {
	cfg := pic.Default()
	cfg.V0, cfg.Vth = 0.2, 0.025
	cfg.ParticlesPerCell = picFullPPC
	steps := picSteps
	if e.quick {
		cfg.ParticlesPerCell, steps = picQuickPPC, picQuickStep
	}
	return cfg, steps
}

func runPicTrad(e *env) (*outcome, error) { return runPic(e, false) }
func runPicDL(e *env) (*outcome, error)   { return runPic(e, true) }

// picRun is one finished simulation with what the checks need.
type picRun struct {
	sim    *pic.Simulation
	rec    diag.Recorder
	gamma  float64
	fitErr error
	stepUS []float64 // filled by the per-step-timed variant only
}

// check applies the per-op physics checks. The growth fit is held per
// op on the traditional cycle only, and only at full size: the field a
// small net predicts is noisy enough that the automatic fit window finds
// no growth phase in about 1 DL run in 250 (the DL cycle is held per
// run instead), and the smoke-test sizes are too short for one.
func (r *picRun) check(solver *core.NNSolver, quick bool) error {
	dl := solver != nil
	if err := r.sim.CheckFinite(); err != nil {
		return err
	}
	total, err := r.rec.Series("total")
	if err != nil {
		return err
	}
	bound := tradEnergyBound
	if dl {
		bound = dlEnergyBound
	}
	if v := diag.MaxRelativeVariation(total); !(v < bound) {
		return fmt.Errorf("total-energy variation %.3g, bound %g", v, bound)
	}
	if dl {
		return checkBatchRow(solver, r.sim)
	}
	if r.fitErr != nil && !quick {
		return r.fitErr
	}
	if !(r.gamma > 0) && !quick {
		return fmt.Errorf("growth fit gave rate %g", r.gamma)
	}
	return nil
}

// fitGamma fits the growth of the monitored mode as the sweep engine
// does (automatic window, log-linear least squares).
func fitGamma(rec *diag.Recorder) (float64, error) {
	fit, err := dlpic.MeasureGrowthRate(rec)
	return fit.Gamma, err
}

// checkBatchRow asserts Predict1 equals the PredictBatch row bitwise on
// the run's final phase-space histogram.
func checkBatchRow(s *core.NNSolver, sim *pic.Simulation) error {
	hist, err := phasespace.NewHist(s.Spec)
	if err != nil {
		return err
	}
	if err := hist.Bin(sim.P.X, sim.P.V); err != nil {
		return err
	}
	in := make([]float64, s.Spec.Size())
	s.Norm.Apply(in, hist.Data)
	one := make([]float64, sim.Cfg.Cells)
	s.Net.Predict1(in, one)
	// Row 1 of a 2-row batch, so the batched path is really taken.
	two := make([]float64, 2*len(one))
	s.Net.PredictBatch(2, append(append([]float64(nil), in...), in...), two)
	for i, v := range one {
		if math.Float64bits(v) != math.Float64bits(two[len(one)+i]) {
			return fmt.Errorf("Predict1 != PredictBatch row at output %d", i)
		}
	}
	return nil
}

// stateHash fingerprints the final X, V and E of a simulation.
func stateHash(sim *pic.Simulation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, xs := range [][]float64{sim.P.X, sim.P.V, sim.E} {
		for _, v := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// stepped runs cfg for steps through Simulation.Step, the program under
// test. With timed set each Step is timed on its own.
func stepped(cfg pic.Config, method pic.FieldMethod, steps int, timed bool) (*picRun, error) {
	sim, err := pic.New(cfg, method)
	if err != nil {
		return nil, err
	}
	r := &picRun{sim: sim}
	if !timed {
		err = sim.Run(steps, &r.rec, nil)
	} else {
		r.stepUS = make([]float64, 0, steps)
		for i := 0; i < steps && err == nil; i++ {
			var s diag.Sample
			t0 := time.Now()
			s, err = sim.Step()
			r.stepUS = append(r.stepUS, usSince(t0))
			r.rec.Add(s)
		}
	}
	if err != nil {
		return nil, err
	}
	r.gamma, r.fitErr = fitGamma(&r.rec)
	return r, nil
}

// shadow drives the PIC cycle from outside, on the simulation's
// exported state, in exactly Simulation.Step's order, with a span at
// every layer boundary. Its final X, V, E must equal a Step() run of
// the same seed bit for bit; that is what lets the ledger speak for the
// real step.
type shadow struct {
	tr    *tracer
	plan  *fft.Plan
	steps int
	// traditional field
	solver poisson.Solver
	// DL field
	dl   *core.NNSolver
	hist *phasespace.Hist
	in   []float64
}

func newShadow(tr *tracer, cfg pic.Config, steps int, dl *core.NNSolver) (*shadow, error) {
	sh := &shadow{tr: tr, plan: fft.MustPlan(cfg.Cells), steps: steps, dl: dl}
	if dl != nil {
		hist, err := phasespace.NewHist(dl.Spec)
		if err != nil {
			return nil, err
		}
		sh.hist, sh.in = hist, make([]float64, dl.Spec.Size())
	}
	return sh, nil
}

func (sh *shadow) run(cfg pic.Config, op int) (*picRun, error) {
	tr := sh.tr
	root := tr.begin("pic.run", -1, op)
	defer tr.end(root)

	id := tr.begin("pic.new", root, op)
	var method pic.FieldMethod
	if sh.dl != nil {
		method = sh.dl
	}
	sim, err := pic.New(cfg, method)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if sh.dl == nil {
		sh.solver = poisson.NewSpectral(sim.G, cfg.Eps0)
	}
	r := &picRun{sim: sim}
	t := 0.0
	for n := 0; n < sh.steps; n++ {
		step := tr.begin("pic.step", root, op)

		id = tr.begin("interp.gather", step, op)
		interp.Gather(cfg.Scheme, sim.G, sim.E, sim.P.X, sim.Ep)
		tr.end(id)

		id = tr.begin("mover.kick", step, op)
		kick := mover.Kick(sim.P.V, sim.Ep, sim.P.QOverM, cfg.Dt)
		tr.end(id)

		id = tr.begin("diag.sample", step, op)
		s := diag.Sample{
			Step: n, Time: t,
			Kinetic:  0.5 * sim.P.Mass * kick.VProdSum,
			Field:    diag.FieldEnergy(sim.G, sim.E, cfg.Eps0),
			Momentum: sim.P.Mass * kick.VMidSum,
			ModeAmp:  diag.ModeAmplitude(sh.plan, sim.E, cfg.DiagMode),
		}
		s.Total = s.Kinetic + s.Field
		r.rec.Add(s)
		tr.end(id)

		id = tr.begin("mover.drift", step, op)
		mover.Drift(sim.P.X, sim.P.V, cfg.Dt, sim.G)
		tr.end(id)

		if sh.dl != nil {
			err = sh.fieldDL(sim, step, op)
		} else {
			err = sh.fieldTrad(sim, step, op)
		}
		tr.end(step)
		if err != nil {
			return nil, fmt.Errorf("shadow field solve at step %d: %w", n+1, err)
		}
		t += cfg.Dt
	}
	id = tr.begin("diag.fit", root, op)
	r.gamma, r.fitErr = fitGamma(&r.rec)
	tr.end(id)
	return r, nil
}

// fieldTrad mirrors pic.TraditionalField.ComputeField.
func (sh *shadow) fieldTrad(sim *pic.Simulation, parent, op int) error {
	tr := sh.tr
	id := tr.begin("interp.deposit", parent, op)
	interp.Deposit(sim.Cfg.Scheme, sim.G, sim.P.X, sim.P.Charge, sim.Rho)
	tr.end(id)
	for i := range sim.Rho {
		sim.Rho[i] += sim.IonRho
	}
	id = tr.begin("poisson.solve", parent, op)
	err := sh.solver.Solve(sim.Phi, sim.Rho)
	if err == nil {
		poisson.EFromPhi(sim.G, sim.E, sim.Phi)
	}
	tr.end(id)
	return err
}

// fieldDL mirrors core.NNSolver.ComputeField (no clamp, no smoothing,
// float64 inference: the fixture leaves those at their zero values).
func (sh *shadow) fieldDL(sim *pic.Simulation, parent, op int) error {
	tr := sh.tr
	field := tr.begin("core.compute_field", parent, op)
	defer tr.end(field)
	id := tr.begin("phasespace.bin", field, op)
	err := sh.hist.Bin(sim.P.X, sim.P.V)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("phasespace.normalize", field, op)
	sh.dl.Norm.Apply(sh.in, sh.hist.Data)
	tr.end(id)
	id = tr.begin("nn.predict1", field, op)
	sh.dl.Net.Predict1(sh.in, sim.E)
	tr.end(id)
	for i, v := range sim.E {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("network produced non-finite E[%d] = %v", i, v)
		}
	}
	return nil
}

func runPic(e *env, dl bool) (*outcome, error) {
	cfg, steps := picConfig(e)
	o := &outcome{}
	seeds := rng.New(e.seed)

	// Set-up: for pic_dl, train the fixture; for both, one warm-up run
	// executed twice, which is also the determinism check (same seed,
	// same state hash). The cheap traditional set-up repeats so setup_s
	// is a median, not one sample.
	var solver *core.NNSolver
	var method pic.FieldMethod
	var c *corpus
	reps := 5
	if dl {
		reps = 1
	}
	warm := cfg
	warm.Seed = seeds.Uint64()
	var setupErr error
	for i := 0; i < reps; i++ {
		err := o.timeSetup(func() error {
			if dl {
				sz := fullFixture
				if e.quick {
					sz = quickFixture
				}
				var err error
				if solver, c, err = trainSolver(cfg, sz, e.seed); err != nil {
					return err
				}
				method = solver
			}
			a, err := stepped(warm, method, steps, false)
			if err != nil {
				return err
			}
			b, err := stepped(warm, method, steps, false)
			if err != nil {
				return err
			}
			if stateHash(a.sim) != stateHash(b.sim) {
				setupErr = errors.New("same seed twice gave different final states")
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var gammas []float64
	if e.tr == nil {
		e.measure(o, func(int) (float64, error) {
			run := cfg
			run.Seed = seeds.Uint64()
			r, err := stepped(run, method, steps, false)
			if err != nil {
				return 0, err
			}
			gammas = append(gammas, r.gamma)
			return float64(steps), r.check(solver, e.quick)
		})
	} else {
		var err error
		if gammas, err = tracePic(e, o, cfg, steps, solver, c, seeds); err != nil {
			return nil, err
		}
	}

	if setupErr != nil {
		o.failRest(setupErr)
	}
	theory := dlpic.TheoreticalGrowthRate(cfg)
	switch med := median(gammas); {
	case e.quick:
	case !dl && math.Abs(med-theory) > gammaTolerance*theory:
		o.failRest(fmt.Errorf("median fitted growth rate %.4f, theory %.4f", med, theory))
	case dl && !(med > 0):
		o.failRest(fmt.Errorf("median fitted growth rate of the DL cycle %.4f: the instability did not grow", med))
	}
	return o, nil
}

// tracePic is the traced pass: each op runs the scenario twice, once
// through Step() with every step timed (the untraced reference) and
// once through the shadow step with spans, and asserts the two end in
// the same state.
// It returns the fitted growth rates of the Step() runs.
func tracePic(e *env, o *outcome, cfg pic.Config, steps int, solver *core.NNSolver, c *corpus, seeds *rng.Source) ([]float64, error) {
	dl := solver != nil
	var method pic.FieldMethod
	if dl {
		method = solver
	}
	sh, err := newShadow(e.tr, cfg, steps, solver)
	if err != nil {
		return nil, err
	}
	var stepUS, plainMS, tracedMS, gammas, nonzero []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.budget(); i++ {
		run := cfg
		run.Seed = seeds.Uint64()
		o.attempted++
		t0 := time.Now()
		plain, err := stepped(run, method, steps, true)
		plainMS = append(plainMS, msSince(t0))
		if err != nil {
			o.fail(1, err)
			continue
		}
		t0 = time.Now()
		traced, err := sh.run(run, i)
		tracedMS = append(tracedMS, msSince(t0))
		switch {
		case err != nil:
			o.fail(1, err)
		case stateHash(plain.sim) != stateHash(traced.sim):
			o.fail(1, fmt.Errorf("op %d: shadow step and Step() ended in different states", i))
		default:
			if err := plain.check(solver, e.quick); err != nil {
				o.fail(1, fmt.Errorf("op %d: %w", i, err))
			}
		}
		stepUS = append(stepUS, plain.stepUS...)
		gammas = append(gammas, plain.gamma)
		if dl {
			nz := 0
			for _, v := range sh.hist.Data {
				if v != 0 {
					nz++
				}
			}
			nonzero = append(nonzero, float64(nz)/float64(len(sh.hist.Data)))
		}
	}

	us := func(metric, span string) float64 { return e.spanMetric(o, metric, span, time.Microsecond) }
	children := us("interp.gather_us", "interp.gather") + us("mover.kick_us", "mover.kick") +
		us("diag.sample_us", "diag.sample") + us("mover.drift_us", "mover.drift")
	if dl {
		children += us("core.compute_field_us", "core.compute_field")
		us("phasespace.bin_us", "phasespace.bin")
		us("phasespace.normalize_us", "phasespace.normalize")
		us("nn.predict1_us", "nn.predict1")
		o.set("phasespace.nonzero_share", median(nonzero))
		o.set("nn.predict1_macs", forwardMACs(solver.Net))
		o.set("tensor.gemm_nn_b1_us", gemmB1(solver.Net, sh.in))
		// Same-run ratio: a few traditional runs of the same scenario.
		var tradUS []float64
		for i := 0; i < 3; i++ {
			run := cfg
			run.Seed = seeds.Uint64()
			r, err := stepped(run, nil, steps, true)
			if err != nil {
				return nil, err
			}
			tradUS = append(tradUS, r.stepUS...)
		}
		o.set("core.dl_over_trad_step", median(stepUS)/median(tradUS))
		// The corpus behind the fixture, for the set-up side of the ledger.
		o.set("dataset.generate_s", c.generateS)
		o.set("dataset.prep_ms", c.prepMS)
		o.set("dataset.samples", float64(c.samples))
	} else {
		children += us("interp.deposit_us", "interp.deposit") + us("poisson.solve_us", "poisson.solve")
		// Computed, not measured: positions read once, rho written once.
		o.set("interp.deposit_bytes", float64(8*(cfg.NumParticles()+cfg.Cells)))
	}
	e.timings["pic.step_us"] = summarize(stepUS, "us")
	step := median(stepUS)
	o.set("pic.step_us", step)
	o.set("pic.step_p99_us", percentile(stepUS, tailPercentile(len(stepUS))))
	o.set("pic.step_unaccounted_pct", 100*(step-children)/step)
	o.set("pic.particle_steps", float64(cfg.NumParticles()*steps*len(tracedMS)))
	e.spanMetric(o, "pic.new_ms", "pic.new", time.Millisecond)
	e.spanMetric(o, "diag.fit_ms", "diag.fit", time.Millisecond)
	o.set("trace.overhead_pct", overheadPct(tracedMS, plainMS))
	return gammas, nil
}

// gemmB1 times the batch-1 first-layer GEMM (1 x in x hidden) on a real
// normalised histogram row, so the zero-skip path sees real sparsity.
func gemmB1(net *nn.Network, row []float64) float64 {
	w := net.Params()[0].W
	a := tensor.FromSlice(row, 1, len(row))
	dst := tensor.New(1, w.Cols())
	us, _ := repeatMedian(300, time.Microsecond, func() error {
		tensor.MatMul(dst, a, w, false, false)
		return nil
	})
	sink = dst.Data[0]
	return us
}
