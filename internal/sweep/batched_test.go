package sweep_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dlpic/internal/batch"
	"dlpic/internal/core"
	"dlpic/internal/interp"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
)

// dlFixture builds a small untrained-but-deterministic DL solver and a
// scenario grid sized for seconds-scale test runs. The weights are
// random yet fixed by seed, which is all determinism testing needs —
// the physics of an untrained net is meaningless but perfectly
// reproducible.
func dlFixture(t *testing.T) (*core.NNSolver, []sweep.Scenario) {
	t.Helper()
	cfg := pic.Default()
	cfg.Cells = 16
	cfg.ParticlesPerCell = 25
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: cfg.Cells, Hidden: 12, HiddenLayers: 2}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 50}, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	scs := sweep.Grid(cfg, []float64{0.15, 0.2}, []float64{0, 0.025}, 1, 8, 7)
	return solver, scs
}

// resultKey flattens the determinism-relevant parts of a sweep result
// for bitwise comparison.
func resultKey(r sweep.Result) string {
	s := fmt.Sprintf("%q err=%v fit=%v", r.Scenario.Name, r.Err, r.FitOK)
	for _, smp := range r.Rec.Samples {
		s += fmt.Sprintf(" %x %x %x %x %x",
			smp.Kinetic, smp.Field, smp.Total, smp.Momentum, smp.ModeAmp)
	}
	for i := range r.FinalX {
		s += fmt.Sprintf(" %x:%x", r.FinalX[i], r.FinalV[i])
	}
	return s
}

func runKeys(t *testing.T, scs []sweep.Scenario, opts sweep.Options) []string {
	t.Helper()
	opts.SkipFit = true
	opts.KeepFinalState = true
	results := sweep.Run(scs, opts)
	if err := sweep.FirstError(results); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(results))
	for i, r := range results {
		keys[i] = resultKey(r)
	}
	return keys
}

// TestBatchedSweepMatchesPerCall is the acceptance property of the
// batched path: for every worker count and every batch cap, a batched
// sweep is bit-identical per scenario to the per-call sweep that clones
// the solver for each scenario.
func TestBatchedSweepMatchesPerCall(t *testing.T) {
	solver, scs := dlFixture(t)
	perCall := runKeys(t, scs, sweep.Options{
		Workers: 1,
		Methods: []sweep.MethodSpec{{Name: "mlp", Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
			return solver.Clone()
		}}},
	})
	for _, workers := range []int{1, 2, 4, 8} {
		for _, maxBatch := range []int{1, 2, 64} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, maxBatch), func(t *testing.T) {
				bs, err := batch.FromNNSolver(solver, maxBatch)
				if err != nil {
					t.Fatal(err)
				}
				defer bs.Close()
				got := runKeys(t, scs, sweep.Options{Workers: workers,
					Methods: []sweep.MethodSpec{{Name: "mlp-batched", Batcher: bs}}})
				for i := range perCall {
					if got[i] != perCall[i] {
						t.Fatalf("scenario %d (%s) diverged from per-call path", i, scs[i].Name)
					}
				}
				st := bs.Server.Stats()
				if st.MaxBatch > maxBatch {
					t.Fatalf("flush of %d rows exceeded cap %d", st.MaxBatch, maxBatch)
				}
				// Every scenario issues Steps+1 solves (initial field +
				// one per step).
				want := len(scs) * (scs[0].Steps + 1)
				if st.Requests != want {
					t.Fatalf("served %d rows, want %d", st.Requests, want)
				}
			})
		}
	}
}

// TestLateJoinerSweepMatchesPerCall pins the server's join/leave
// registration contract across sweep generations: after a first sweep's
// clients have all registered, predicted and left, a *second* sweep's
// late-joining clients on the same live server produce results
// bit-identical to the per-call path. This is the seam the campaign
// service leans on — many campaigns share one inference server through
// batch.Pool instead of constructing one server per sweep.
func TestLateJoinerSweepMatchesPerCall(t *testing.T) {
	solver, scs := dlFixture(t)
	perCall := runKeys(t, scs, sweep.Options{
		Workers: 1,
		Methods: []sweep.MethodSpec{{Name: "mlp", Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
			return solver.Clone()
		}}},
	})
	bs, err := batch.FromNNSolver(solver, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	batchedOpts := sweep.Options{Workers: 4,
		Methods: []sweep.MethodSpec{{Name: "mlp-batched", Batcher: bs}}}
	// Generation 1: a full sweep joins and leaves the live server.
	first := runKeys(t, scs, batchedOpts)
	// Generation 2: late joiners register on the same, still-running
	// server after every generation-1 client has unregistered.
	second := runKeys(t, scs, batchedOpts)
	for i := range perCall {
		if first[i] != perCall[i] {
			t.Fatalf("generation 1 scenario %d diverged from per-call path", i)
		}
		if second[i] != perCall[i] {
			t.Fatalf("late-joiner scenario %d diverged from per-call path", i)
		}
	}
	// Both generations really hit the one server.
	st := bs.Server.Stats()
	want := 2 * len(scs) * (scs[0].Steps + 1)
	if st.Requests != want {
		t.Fatalf("shared server served %d rows, want %d across both generations", st.Requests, want)
	}
}

// TestPooledSolverSweepMatchesPerCall runs two method-registry sweeps
// whose batched backend is acquired from one batch.Pool under the same
// key: the pool memoizes a single server, both sweeps' requesters
// join/leave it, and results stay bit-identical to per-call runs.
func TestPooledSolverSweepMatchesPerCall(t *testing.T) {
	solver, scs := dlFixture(t)
	perCall := runKeys(t, scs, sweep.Options{
		Workers: 1,
		Methods: []sweep.MethodSpec{{Name: "mlp", Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
			return solver.Clone()
		}}},
	})
	pool := batch.NewPool()
	defer pool.Close()
	build := func() (*batch.Solver, error) { return batch.FromNNSolver(solver, 0) }
	var shared *batch.Solver
	for gen := 0; gen < 2; gen++ {
		bs, err := pool.Solver("mlp", build)
		if err != nil {
			t.Fatal(err)
		}
		if gen == 0 {
			shared = bs
		} else if bs != shared {
			t.Fatal("pool handed out a second solver for one key")
		}
		got := runKeys(t, scs, sweep.Options{Workers: 2,
			Methods: []sweep.MethodSpec{{Name: "mlp-batched", Batcher: bs}}})
		for i := range perCall {
			if got[i] != perCall[i] {
				t.Fatalf("pooled generation %d scenario %d diverged from per-call path", gen, i)
			}
		}
	}
}

// TestBatcherMethodMutuallyExclusive pins the MethodSpec contract: one
// spec cannot carry both a per-call factory and a batched backend.
func TestBatcherMethodMutuallyExclusive(t *testing.T) {
	solver, scs := dlFixture(t)
	bs, err := batch.FromNNSolver(solver, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	results := sweep.Run(scs[:1], sweep.Options{
		Methods: []sweep.MethodSpec{{
			Name:    "both",
			Batcher: bs,
			Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
				return solver.Clone()
			},
		}},
	})
	if err := sweep.FirstError(results); err == nil {
		t.Fatal("Factory+Batcher accepted")
	}
}

// TestBatchedSweepScenarioError verifies a failing scenario releases
// its batch client so the remaining scenarios still complete.
func TestBatchedSweepScenarioError(t *testing.T) {
	solver, scs := dlFixture(t)
	bad := scs[0]
	bad.Steps = 0 // invalid: rejected before the simulation is built
	mixed := append([]sweep.Scenario{bad}, scs...)
	bs, err := batch.FromNNSolver(solver, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	results := sweep.Run(mixed, sweep.Options{Workers: 4,
		Methods: []sweep.MethodSpec{{Name: "mlp-batched", Batcher: bs}}})
	if results[0].Err == nil {
		t.Fatal("invalid scenario did not error")
	}
	for i, r := range results[1:] {
		if r.Err != nil {
			t.Fatalf("scenario %d failed after sibling error: %v", i+1, r.Err)
		}
	}
}

// TestBatchedSweepNonFiniteFieldFails: a network with a NaN output bias
// fails every batched cell with the same non-finite-field error as the
// per-call path, before any particle is pushed by the NaN field.
func TestBatchedSweepNonFiniteFieldFails(t *testing.T) {
	solver, scs := dlFixture(t)
	params := solver.Net.Params()
	params[len(params)-1].W.Data[0] = math.NaN()
	perCall := sweep.Run(scs, sweep.Options{Workers: 1,
		Methods: []sweep.MethodSpec{{Name: "mlp", Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
			return solver.Clone()
		}}}})
	bs, err := batch.FromNNSolver(solver, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	batched := sweep.Run(scs, sweep.Options{Workers: 2,
		Methods: []sweep.MethodSpec{{Name: "mlp", Batcher: bs}}})
	for i, r := range batched {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "non-finite") {
			t.Fatalf("scenario %d: err = %v, want the non-finite field error", i, r.Err)
		}
		if perCall[i].Err == nil || r.Err.Error() != perCall[i].Err.Error() {
			t.Fatalf("scenario %d: batched err %q, per-call err %v", i, r.Err, perCall[i].Err)
		}
	}
}
