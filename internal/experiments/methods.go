package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dlpic/internal/batch"
	"dlpic/internal/core"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

// Method names understood by ResolveMethodNames / Methods. The paper's
// comparison set: the traditional deposit+Poisson solver, the two
// trained DL solvers, and the learning-free oracle that isolates cycle
// error from learning error.
const (
	MethodTraditional = "traditional"
	MethodOracle      = "oracle"
	MethodMLP         = "mlp"
	MethodCNN         = "cnn"
)

// KnownMethods returns the registry names Methods resolves, sorted.
func KnownMethods() []string {
	names := []string{MethodTraditional, MethodOracle, MethodMLP, MethodCNN}
	sort.Strings(names)
	return names
}

// ResolveMethodNames parses a comma-separated -methods flag value into
// a validated, deduplicated name list (order preserved) and reports
// which trained solvers it needs.
func ResolveMethodNames(raw string) (names []string, needMLP, needCNN bool, err error) {
	seen := map[string]bool{}
	for _, part := range strings.Split(raw, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		switch name {
		case MethodTraditional, MethodOracle:
		case MethodMLP:
			needMLP = true
		case MethodCNN:
			needCNN = true
		default:
			return nil, false, false, fmt.Errorf("experiments: unknown method %q (known: %s)",
				name, strings.Join(KnownMethods(), ", "))
		}
		if seen[name] {
			return nil, false, false, fmt.Errorf("experiments: duplicate method %q", name)
		}
		seen[name] = true
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, false, false, fmt.Errorf("experiments: empty method list")
	}
	return names, needMLP, needCNN, nil
}

// PipelineProvider supplies the trained pipeline a DL method needs. It
// is invoked at most once, concurrently-safely, and only when a DL
// cell actually executes — a resumed campaign whose DL cells are all
// journaled never pays corpus generation or training. FixedPipeline
// wraps an already-built pipeline; NewPipelineProvider memoizes a
// lazy build.
type PipelineProvider func() (*Pipeline, error)

// FixedPipeline wraps an existing pipeline as a provider.
func FixedPipeline(p *Pipeline) PipelineProvider {
	return func() (*Pipeline, error) { return p, nil }
}

// NewPipelineProvider returns a provider that builds the pipeline of
// opts on first use and reuses it afterwards (also across methods —
// the MLP and CNN entries share one corpus and training run).
func NewPipelineProvider(opts Options) PipelineProvider {
	var (
		once sync.Once
		p    *Pipeline
		err  error
	)
	return func() (*Pipeline, error) {
		once.Do(func() { p, err = New(opts) })
		return p, err
	}
}

// lazyBatcher defers building a batched inference backend until the
// first scenario of its method actually runs, so restored-from-journal
// campaigns neither train nor start servers. It implements
// sweep.Batcher; close releases the backend if one was built.
type lazyBatcher struct {
	build func() (*batch.Solver, error)
	once  sync.Once
	bs    *batch.Solver
	err   error
}

func (l *lazyBatcher) FieldMethod(cfg pic.Config) (pic.FieldMethod, error) {
	l.once.Do(func() { l.bs, l.err = l.build() })
	if l.err != nil {
		return nil, l.err
	}
	return l.bs.FieldMethod(cfg)
}

func (l *lazyBatcher) close() {
	if l.bs != nil {
		l.bs.Close()
	}
}

// MethodConfig selects how DL methods execute their field solves.
// The zero value is the per-call path: every scenario clones its own
// solver. Batched routes solves through shared batched-inference
// servers instead (MaxBatch <= 0 selects the default flush cap) —
// results are bit-identical either way. Pool, when set alongside
// Batched, sources those servers from a shared batch.Pool under
// PoolKey(method) rather than constructing one per registry: requesters
// from many concurrent campaigns then join and leave one live server,
// and the pool — not the registry's cleanup — owns its lifetime.
// PoolKey must fold in everything the built server depends on (the
// pipeline's training identity and the batch cap); it is required when
// Pool is set.
type MethodConfig struct {
	Batched  bool
	MaxBatch int
	Pool     *batch.Pool
	PoolKey  func(method string) string
}

// BundleMethod constructs the method spec of one DL method from a
// locally cached model bundle — the worker side of distributed DL
// execution (dist.WorkerOptions.BundleMethod). It loads the bundle
// eagerly, so a corrupt file fails the cell at resolution rather than
// mid-sweep, and clones the solver per scenario exactly like the
// serial per-call path (MethodsWith without Batched), which is what
// keeps a distributed DL digest bit-identical to the serial one.
func BundleMethod(name, path string) (sweep.MethodSpec, error) {
	solver, err := core.LoadModelFile(path)
	if err != nil {
		return sweep.MethodSpec{}, fmt.Errorf("experiments: bundle method %q: %w", name, err)
	}
	return sweep.MethodSpec{Name: name, Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
		return solver.Clone()
	}}, nil
}

// MethodsWith resolves method names into the sweep method registry of a
// comparison campaign. provider supplies the trained solvers on first
// DL use; it may be nil when only model-free methods (traditional,
// oracle) are requested. With mc.Batched set, the DL methods route
// their field solves through shared batched-inference servers
// (mc.MaxBatch <= 0 selects the default flush cap) instead of cloning
// one solver per scenario — results are bit-identical either way. The
// returned cleanup releases any batched backends and must be called
// after the sweeps using the specs have returned (it is a no-op when
// none were built). With mc.Pool set it does not close pooled servers
// — they stay live for other campaigns and are released by Pool.Close
// when the owning service drains.
func MethodsWith(provider PipelineProvider, names []string, mc MethodConfig) (specs []sweep.MethodSpec, cleanup func(), err error) {
	if mc.Pool != nil && !mc.Batched {
		return nil, func() {}, fmt.Errorf("experiments: MethodConfig.Pool requires Batched")
	}
	if mc.Pool != nil && mc.PoolKey == nil {
		return nil, func() {}, fmt.Errorf("experiments: MethodConfig.Pool requires PoolKey")
	}
	var closers []func()
	cleanup = func() {
		for _, c := range closers {
			c()
		}
	}
	trained := func(name string) (*core.NNSolver, error) {
		if provider == nil {
			return nil, fmt.Errorf("experiments: method %q needs a trained %s solver", name, name)
		}
		p, err := provider()
		if err != nil {
			return nil, err
		}
		var solver *core.NNSolver
		if p != nil {
			switch name {
			case MethodMLP:
				solver = p.MLP
			case MethodCNN:
				solver = p.CNN
			}
		}
		if solver == nil {
			return nil, fmt.Errorf("experiments: method %q needs a trained %s solver", name, name)
		}
		return solver, nil
	}
	solverSpec := func(name string) sweep.MethodSpec {
		if mc.Batched {
			build := func() (*batch.Solver, error) {
				solver, err := trained(name)
				if err != nil {
					return nil, err
				}
				return batch.FromNNSolver(solver, mc.MaxBatch)
			}
			if mc.Pool != nil {
				pool, key := mc.Pool, mc.PoolKey(name)
				// Pool-owned: not in closers — the server outlives this
				// registry so later campaigns' requesters can join it.
				return sweep.MethodSpec{Name: name,
					Batcher: &lazyBatcher{build: func() (*batch.Solver, error) {
						return pool.Solver(key, build)
					}}}
			}
			lb := &lazyBatcher{build: build}
			closers = append(closers, lb.close)
			return sweep.MethodSpec{Name: name, Batcher: lb}
		}
		return sweep.MethodSpec{Name: name, Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
			solver, err := trained(name)
			if err != nil {
				return nil, err
			}
			return solver.Clone()
		}}
	}
	for _, name := range names {
		switch name {
		case MethodTraditional:
			specs = append(specs, sweep.MethodSpec{Name: MethodTraditional})
		case MethodOracle:
			// The oracle is model-free: it consumes the default binning
			// with NX following the grid (which its density recovery
			// requires) — the same spec the trained pipeline uses on
			// the paper box.
			specs = append(specs, sweep.MethodSpec{Name: MethodOracle,
				Factory: func(sc sweep.Scenario) (pic.FieldMethod, error) {
					spec := phasespace.DefaultSpec(sc.Cfg.Length)
					spec.NX = sc.Cfg.Cells
					return core.NewOracleSolver(sc.Cfg, spec)
				}})
		case MethodMLP, MethodCNN:
			if provider == nil {
				cleanup()
				return nil, func() {}, fmt.Errorf("experiments: method %q needs a trained solver (no pipeline provider)", name)
			}
			specs = append(specs, solverSpec(name))
		default:
			cleanup()
			return nil, func() {}, fmt.Errorf("experiments: unknown method %q", name)
		}
	}
	return specs, cleanup, nil
}
