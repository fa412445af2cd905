// Package sweep is the concurrent scenario-sweep engine: it fans a set
// of PIC scenario variants across a bounded worker pool, runs each to
// completion, and collects per-scenario diagnostics plus growth-rate
// fits. It is the substrate for corpus generation (cmd/datagen),
// parameter scans (cmd/experiments -scan), journaled campaigns
// (internal/campaign) and any future batched workload.
//
// Multi-method sweeps. Options.Methods is a named method registry: each
// MethodSpec names one field-method backend (traditional, a
// per-scenario factory, or a shared batched backend), and Run executes
// the full scenario x method cross product on one pool, tagging every
// Result with its method name. This is how the paper's side-by-side
// comparisons (traditional vs MLP vs CNN vs oracle over a scenario
// grid) run as a single campaign.
//
// Determinism: every scenario carries its own pre-derived seed (Grid
// assigns seeds in scenario order before anything runs), each
// simulation owns its state and field method exclusively, and results
// land in input-order slots. Combined with the GOMAXPROCS-invariant
// kernels of internal/parallel, a sweep produces bit-identical results
// for any worker count, including Workers=1.
package sweep

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"dlpic/internal/diag"
	"dlpic/internal/parallel"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/theory"
)

// Scenario is one PIC run of a sweep: a named configuration and a step
// count. The Cfg carries its own Seed; Grid pre-derives seeds so that
// the scenario list is fully determined before any run starts.
type Scenario struct {
	Name  string
	Cfg   pic.Config
	Steps int
}

// MethodFactory builds the field method for one scenario. It is called
// once per scenario x method cell inside the worker that runs it, so it
// must be safe for concurrent calls; the returned method is owned by
// that cell's simulation exclusively (FieldMethod instances hold
// scratch state and must not be shared across concurrently stepping
// simulations). A nil factory selects the traditional deposit+Poisson
// method.
type MethodFactory func(sc Scenario) (pic.FieldMethod, error)

// Batcher builds per-scenario field methods that share one batched
// inference backend: instead of every scenario paying its own network
// call (and owning its own network clone), the methods a Batcher hands
// out submit their field requests to a common server that stacks them
// into single batched predictions. internal/batch.Solver implements
// this interface. Methods returned by a Batcher (or a MethodFactory)
// that implement io.Closer are closed when their scenario finishes, so
// the backend can track how many scenarios are still requesting.
type Batcher interface {
	// FieldMethod returns a field method for one scenario of the given
	// configuration, owned by that scenario's simulation exclusively.
	FieldMethod(cfg pic.Config) (pic.FieldMethod, error)
}

// MethodSpec is one entry of a sweep's method registry: a named
// field-method backend. At most one of Factory and Batcher may be set;
// with both nil the spec selects the traditional deposit+Poisson
// method. The zero value (with a Name) is therefore the traditional
// method. Specs are shared across pool workers: Factory must tolerate
// concurrent calls, and a Batcher hands each cell its own client while
// the heavyweight backend stays shared.
type MethodSpec struct {
	// Name identifies the method; it lands in Result.Method and in
	// campaign journal keys. Empty is allowed only when the spec is the
	// implicit traditional default (both Factory and Batcher nil), where
	// it resolves to "traditional".
	Name string
	// Factory builds one field method per scenario (per-call backend).
	Factory MethodFactory
	// Batcher routes every scenario's field solve through one shared
	// batched-inference backend (see internal/batch).
	Batcher Batcher
}

// Validate rejects a spec that sets both Factory and Batcher.
func (m MethodSpec) Validate() error {
	if m.Factory != nil && m.Batcher != nil {
		return fmt.Errorf("sweep: method %q: Factory and Batcher are mutually exclusive", m.label())
	}
	return nil
}

// label returns the display name of the spec, resolving the implicit
// traditional default.
func (m MethodSpec) label() string {
	if m.Name != "" {
		return m.Name
	}
	if m.Factory == nil && m.Batcher == nil {
		return "traditional"
	}
	return "unnamed"
}

// ValidateMethods checks a method registry: every spec must be valid,
// every spec carrying a Factory or Batcher must be named (names key
// results and journal records — an anonymous backend could be silently
// mistaken for a different one on a later resume), and names must be
// unique. Only the implicit traditional default (zero spec) may omit
// its name.
func ValidateMethods(methods []MethodSpec) error {
	seen := make(map[string]bool, len(methods))
	for _, m := range methods {
		if err := m.Validate(); err != nil {
			return err
		}
		name := m.label()
		if name == "unnamed" {
			return fmt.Errorf("sweep: method specs with a Factory or Batcher require a Name")
		}
		if seen[name] {
			return fmt.Errorf("sweep: duplicate method name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// ResolveMethods normalizes a registry for execution: an empty list
// becomes the single traditional method, and every returned spec
// carries a non-empty name. The error is ValidateMethods'.
func ResolveMethods(methods []MethodSpec) ([]MethodSpec, error) {
	if len(methods) == 0 {
		return []MethodSpec{{Name: "traditional"}}, nil
	}
	if err := ValidateMethods(methods); err != nil {
		return nil, err
	}
	out := make([]MethodSpec, len(methods))
	for i, m := range methods {
		m.Name = m.label()
		out[i] = m
	}
	return out, nil
}

// Result is the outcome of one scenario x method cell.
type Result struct {
	Scenario Scenario
	// Method is the name of the method registry entry that produced
	// this result ("traditional" for the default).
	Method string
	// Rec holds the per-step diagnostics of the run.
	Rec diag.Recorder
	// Growth is the fitted exponential growth of the monitored mode
	// (valid when FitOK); TheoryGamma is the cold two-stream linear
	// prediction for the same mode.
	Growth      diag.GrowthFit
	FitOK       bool
	TheoryGamma float64
	// EnergyVariation is max |E(t)-E(0)|/|E(0)| of the total energy;
	// MomentumDrift is P(end) - P(0).
	EnergyVariation float64
	MomentumDrift   float64
	// FinalX, FinalV snapshot the particle phase space at the end of the
	// run (only when Options.KeepFinalState is set).
	FinalX, FinalV []float64
	// Elapsed is the wall-clock time of this cell.
	Elapsed time.Duration
	// Err is non-nil if the cell failed to build or step; the other
	// fields are partial in that case.
	Err error
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Methods is the named method registry: every scenario runs once
	// per entry, and results carry the entry's name. Empty selects the
	// single traditional method. See MethodSpec.
	Methods []MethodSpec
	// SkipFit disables the growth-rate fit (e.g. for non-unstable
	// configurations where no growth window exists).
	SkipFit bool
	// KeepFinalState snapshots each run's final (x, v) into the Result.
	KeepFinalState bool
	// Progress, if non-nil, is called after each completed cell with
	// the completed and total counts. Calls are serialized.
	Progress func(done, total int)
}

// Collect runs run(i) for every index of [0, n) on a bounded worker
// pool and stores the returned values in input order; progress, if
// non-nil, is called serialized after each completion. It is the shared
// scheduling plumbing under Run and the campaign engine: any per-index
// result type rides the same pool, ordering and progress discipline.
func Collect[R any](n, workers int, progress func(done, total int), run func(i int) R) []R {
	results := make([]R, n)
	var (
		mu   sync.Mutex
		done int
	)
	parallel.ForPool(n, workers, func(i int) {
		results[i] = run(i)
		if progress != nil {
			mu.Lock()
			done++
			progress(done, n)
			mu.Unlock()
		}
	})
	return results
}

// Run executes the scenario x method cross product on a bounded worker
// pool and returns the results scenario-major (all methods of scenario
// 0, then scenario 1, ...): cell (i, j) of S scenarios and M methods is
// results[i*M+j]. With an empty Options.Methods the result list is one
// traditional Result per scenario, exactly the single-method sweep.
// Per-cell failures are reported in Result.Err rather than aborting the
// sweep; FirstError collects them. An invalid method registry fails
// every cell.
func Run(scenarios []Scenario, opts Options) []Result {
	methods, err := ResolveMethods(opts.Methods)
	if err != nil {
		// Shape-preserving failure: the caller can still index cells.
		m := len(opts.Methods)
		results := make([]Result, len(scenarios)*m)
		for c := range results {
			results[c] = Result{Scenario: scenarios[c/m], Method: opts.Methods[c%m].label(), Err: err}
		}
		return results
	}
	m := len(methods)
	return Collect(len(scenarios)*m, opts.Workers, opts.Progress, func(c int) Result {
		return RunScenario(scenarios[c/m], methods[c%m], opts)
	})
}

// RunScenario executes one scenario with one method spec and returns
// its Result. It is the unit of work Run schedules and the campaign
// engine journals; calling it directly runs the cell inline.
func RunScenario(sc Scenario, m MethodSpec, opts Options) (res Result) {
	res = Result{Scenario: sc, Method: m.label()}
	//determlint:ignore nondet Elapsed is wall-clock telemetry only; campaign.Digest and journal keys exclude it by contract
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }() //determlint:ignore nondet Elapsed is telemetry, excluded from digests
	if err := m.Validate(); err != nil {
		res.Err = fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
		return res
	}
	if sc.Steps < 1 {
		res.Err = fmt.Errorf("sweep: scenario %q: Steps = %d, need >= 1", sc.Name, sc.Steps)
		return res
	}
	var method pic.FieldMethod
	switch {
	case m.Batcher != nil:
		fm, err := m.Batcher.FieldMethod(sc.Cfg)
		if err != nil {
			res.Err = fmt.Errorf("sweep: scenario %q: method %q: batcher: %w", sc.Name, res.Method, err)
			return res
		}
		method = fm
	case m.Factory != nil:
		fm, err := m.Factory(sc)
		if err != nil {
			res.Err = fmt.Errorf("sweep: scenario %q: method %q: %w", sc.Name, res.Method, err)
			return res
		}
		method = fm
	}
	// Methods holding backend resources (e.g. a batch-server client)
	// release them when the scenario is done, success or failure.
	if c, ok := method.(io.Closer); ok {
		defer c.Close()
	}
	sim, err := pic.New(sc.Cfg, method)
	if err != nil {
		res.Err = fmt.Errorf("sweep: scenario %q: method %q: %w", sc.Name, res.Method, err)
		return res
	}
	if err := sim.Run(sc.Steps, &res.Rec, nil); err != nil {
		res.Err = fmt.Errorf("sweep: scenario %q: method %q: %w", sc.Name, res.Method, err)
		return res
	}
	res.TheoryGamma = TheoreticalGrowthRate(sc.Cfg)
	if !opts.SkipFit {
		fit, err := MeasureGrowthRate(&res.Rec)
		res.Growth, res.FitOK = fit, err == nil
	}
	if total, err := res.Rec.Series("total"); err == nil {
		res.EnergyVariation = diag.MaxRelativeVariation(total)
	}
	if mom, err := res.Rec.Series("momentum"); err == nil {
		res.MomentumDrift = diag.Drift(mom)
	}
	if opts.KeepFinalState {
		res.FinalX = append([]float64(nil), sim.P.X...)
		res.FinalV = append([]float64(nil), sim.P.V...)
	}
	return res
}

// MeasureGrowthRate fits the exponential growth of the recorded
// mode-amplitude series using an automatic window between the noise
// floor (1 % of the peak) and saturation (30 % of it). It is the fit
// behind every Result.Growth.
func MeasureGrowthRate(rec *diag.Recorder) (diag.GrowthFit, error) {
	amps, err := rec.Series("mode")
	if err != nil {
		return diag.GrowthFit{}, err
	}
	times := rec.Times()
	t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.01, 0.3)
	if err != nil {
		return diag.GrowthFit{}, err
	}
	return diag.FitGrowthRate(times, amps, t0, t1)
}

// TheoreticalGrowthRate returns the cold two-stream linear growth rate
// of the monitored mode for cfg (the "Linear Theory" slope of the
// paper's Fig. 4). It is every Result.TheoryGamma.
func TheoreticalGrowthRate(cfg pic.Config) float64 {
	ts := theory.TwoStream{Wp: cfg.Wp, V0: cfg.V0, Vth: cfg.Vth}
	k := 2 * math.Pi * float64(cfg.DiagMode) / cfg.Length
	return ts.GrowthRate(k)
}

// FirstError returns the first per-cell error in a result set, or nil
// if every cell succeeded.
func FirstError(results []Result) error {
	for i := range results {
		if err := results[i].Err; err != nil {
			return err
		}
	}
	return nil
}

// Grid builds the cross product of beam speeds x thermal speeds x
// repeats over a base configuration, pre-deriving every run's seed from
// the root seed in scenario order. The scenario list — including the
// seeds — is therefore identical regardless of how the sweep is later
// scheduled.
func Grid(base pic.Config, v0s, vths []float64, repeats, steps int, seed uint64) []Scenario {
	seeder := rng.New(seed)
	out := make([]Scenario, 0, len(v0s)*len(vths)*repeats)
	for _, v0 := range v0s {
		for _, vth := range vths {
			for rep := 0; rep < repeats; rep++ {
				cfg := base
				cfg.V0 = v0
				cfg.Vth = vth
				cfg.Seed = seeder.Uint64()
				out = append(out, Scenario{
					Name:  fmt.Sprintf("v0=%g vth=%g rep=%d", v0, vth, rep),
					Cfg:   cfg,
					Steps: steps,
				})
			}
		}
	}
	return out
}
