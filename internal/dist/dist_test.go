package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dlpic/internal/campaign"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

// Claim leases at most one cell through ClaimBatch: a nil grant with
// false means nothing is claimable right now, true that every cell is
// settled.
func (c *Coordinator) Claim(worker string, methods []string) (*Grant, bool, error) {
	grants, done, err := c.ClaimBatch(worker, methods, 1)
	if len(grants) > 0 {
		return grants[0], done, err
	}
	return nil, done, err
}

// Heartbeat extends one live lease through HeartbeatBatch and returns
// the TTL, or ErrLeaseExpired when the lease is no longer current.
func (c *Coordinator) Heartbeat(lease string) (time.Duration, error) {
	ttl, expired := c.HeartbeatBatch([]string{lease})
	if len(expired) > 0 {
		return 0, ErrLeaseExpired
	}
	return ttl, nil
}

// fakeClock is a scripted Options.Clock: tests advance it to force
// lease expiries without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// tinyBase returns a seconds-scale configuration for dist tests.
func tinyBase() pic.Config {
	cfg := pic.Default()
	cfg.Cells = 32
	cfg.ParticlesPerCell = 40
	return cfg
}

// tinySpec builds a small single-method campaign spec.
func tinySpec(scenarios, steps int) campaign.Spec {
	v0s := make([]float64, scenarios)
	for i := range v0s {
		v0s[i] = 0.15 + 0.01*float64(i)
	}
	return campaign.Spec{
		Scenarios: sweep.Grid(tinyBase(), v0s, []float64{0.01}, 1, steps, 3),
		Retry:     campaign.RetryPolicy{MaxAttempts: 3, Seed: 3},
		Opts:      sweep.Options{SkipFit: true},
	}
}

// runGrant executes a granted cell inline and returns its sanitized
// record, exactly as a worker would produce it.
func runGrant(g *Grant) campaign.Record {
	res := sweep.RunScenario(g.Cell.Scenario, g.Cell.Method, sweep.Options{
		SkipFit: g.SkipFit, KeepFinalState: g.KeepFinalState,
	})
	rec, _ := campaign.NewRecord(g.Cell.Key, 0, res).Sanitized()
	return rec
}

// journalKeyCounts counts raw journal lines per key — double-journaled
// cells show up here even though LoadJournal's last-wins hides them.
func journalKeyCounts(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec campaign.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn tail
		}
		counts[rec.Key]++
	}
	return counts
}

// TestFaultPlanDeterministicSchedule: the fault fate of RPC (kind, n)
// is a pure function of the seed, independent across kinds, and stable
// across FaultPlan instances.
func TestFaultPlanDeterministicSchedule(t *testing.T) {
	p1 := &FaultPlan{Seed: 7, Drop: 0.3, Err: 0.2, DelayP: 0.5, Delay: time.Millisecond}
	p2 := &FaultPlan{Seed: 7, Drop: 0.3, Err: 0.2, DelayP: 0.5, Delay: time.Millisecond}
	differs := false
	for n := 0; n < 200; n++ {
		for _, kind := range []string{"claim", "heartbeat", "complete"} {
			if p1.decide(kind, n) != p2.decide(kind, n) {
				t.Fatalf("plan not deterministic at (%s, %d)", kind, n)
			}
		}
		if p1.decide("claim", n) != p1.decide("complete", n) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("fault schedule identical across RPC kinds: kind is not keyed in")
	}
	if (&FaultPlan{Seed: 9, Drop: 0.3}).decide("claim", 0) == (&FaultPlan{Seed: 10, Drop: 0.3}).decide("claim", 0) &&
		(&FaultPlan{Seed: 9, Drop: 0.3}).decide("claim", 1) == (&FaultPlan{Seed: 10, Drop: 0.3}).decide("claim", 1) &&
		(&FaultPlan{Seed: 9, Drop: 0.3}).decide("claim", 2) == (&FaultPlan{Seed: 10, Drop: 0.3}).decide("claim", 2) {
		t.Fatal("seed change left the first three draws identical")
	}
	var nilPlan *FaultPlan
	if nilPlan.decide("claim", 0) != (faultDecision{}) {
		t.Fatal("nil plan injected a fault")
	}
}

// TestParseFaultPlan pins the flag syntax.
func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("seed=7,drop=0.2,err=0.1,delay=0.15:40ms")
	if err != nil {
		t.Fatal(err)
	}
	want := &FaultPlan{Seed: 7, Drop: 0.2, Err: 0.1, DelayP: 0.15, Delay: 40 * time.Millisecond}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if p, err := ParseFaultPlan(""); err != nil || p != nil {
		t.Fatalf("empty plan = (%v, %v), want (nil, nil)", p, err)
	}
	// Kind-scoped fields land in the kind's sub-plan, not plan-wide.
	p, err = ParseFaultPlan("seed=3,drop=0.1,bundle.delay=1:2s,bundle.drop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want = &FaultPlan{Seed: 3, Drop: 0.1, Kinds: map[string]*FaultPlan{
		"bundle": {Drop: 0.5, DelayP: 1, Delay: 2 * time.Second},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	for _, bad := range []string{"drop=2", "err=-1", "delay=40ms", "delay=0.5:nope", "seed=x", "bogus=1", "drop", "bogus.drop=0.5", "bundle.bogus=1"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

// TestFaultPlanKindScoping: a kind-scoped sub-plan replaces the
// plan-wide probabilities for its kind only, inherits the parent seed
// when its own is zero, and leaves other kinds on the parent schedule.
func TestFaultPlanKindScoping(t *testing.T) {
	parent := &FaultPlan{Seed: 7, Drop: 0.3}
	scoped := &FaultPlan{Seed: 7, Drop: 0.3, Kinds: map[string]*FaultPlan{
		"bundle": {Drop: 1},
	}}
	for n := 0; n < 50; n++ {
		if !scoped.decide("bundle", n).drop {
			t.Fatalf("bundle rpc %d escaped a drop=1 sub-plan", n)
		}
		if scoped.decide("claim", n) != parent.decide("claim", n) {
			t.Fatalf("claim rpc %d schedule perturbed by the bundle sub-plan", n)
		}
	}
	// Zero-seed sub-plans inherit the parent seed: same schedule as a
	// standalone plan with the parent's seed.
	inherit := &FaultPlan{Seed: 9, Kinds: map[string]*FaultPlan{"bundle": {Drop: 0.4}}}
	standalone := &FaultPlan{Seed: 9, Drop: 0.4}
	for n := 0; n < 50; n++ {
		if inherit.decide("bundle", n) != standalone.decide("bundle", n) {
			t.Fatalf("zero-seed sub-plan did not inherit the parent seed at rpc %d", n)
		}
	}
}

// TestLeaseExpiryReassignsWithoutDoubleJournal drives the lease state
// machine with a scripted clock: a stalled worker's lease expires, the
// cell is re-leased, the stale holder's completion is rejected, and the
// journal records the cell exactly once with no attempt burned by the
// preemption.
func TestLeaseExpiryReassignsWithoutDoubleJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "job.jsonl")
	clock := newFakeClock()
	spec := tinySpec(1, 5)
	c, err := NewCoordinator("job", journal, spec, Options{
		LeaseTTL: time.Second, Clock: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	gA, done, err := c.Claim("wA", nil)
	if err != nil || done || gA == nil {
		t.Fatalf("claim A = (%v, %v, %v)", gA, done, err)
	}
	// A second claim while the lease is live gets nothing.
	if g, _, _ := c.Claim("wB", nil); g != nil {
		t.Fatal("double-leased a cell")
	}
	// Heartbeats keep the lease alive across TTL boundaries.
	clock.Advance(700 * time.Millisecond)
	if _, err := c.Heartbeat(gA.Lease); err != nil {
		t.Fatalf("heartbeat on live lease: %v", err)
	}
	clock.Advance(700 * time.Millisecond)
	if g, _, _ := c.Claim("wB", nil); g != nil {
		t.Fatal("heartbeat did not extend the lease")
	}
	// Silence past the TTL: the next claim expires and re-leases.
	clock.Advance(1100 * time.Millisecond)
	gB, done, err := c.Claim("wB", nil)
	if err != nil || done || gB == nil {
		t.Fatalf("claim B after expiry = (%v, %v, %v)", gB, done, err)
	}
	if gB.Cell.Key != gA.Cell.Key {
		t.Fatal("reassignment changed the cell")
	}
	if _, err := c.Heartbeat(gA.Lease); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("stale heartbeat = %v, want ErrLeaseExpired", err)
	}

	rec := runGrant(gB)
	// The stale holder finishes late and tries to report: rejected,
	// nothing journaled.
	if err := c.Complete(gA.Lease, rec, false); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("stale completion = %v, want ErrLeaseExpired", err)
	}
	if counts := journalKeyCounts(t, journal); len(counts) != 0 {
		t.Fatalf("stale completion journaled: %v", counts)
	}
	// The current holder reports: journaled once, attempts=1 — the
	// expired execution was a preemption, not an attempt.
	if err := c.Complete(gB.Lease, rec, false); err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[gB.Cell.Key]; got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (expiry must not burn budget)", got.Attempts)
	}
	results, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("results = %+v", results)
	}
	// Completion against a closed coordinator is a preemption too.
	if err := c.Complete(gB.Lease, rec, false); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("post-close completion = %v", err)
	}
}

// TestTransientFailureReLeasedWithinBudget: a transient completion puts
// the cell back in the pool behind the backoff gate, and the budget
// caps total executions.
func TestTransientFailureReLeasedWithinBudget(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "job.jsonl")
	clock := newFakeClock()
	spec := tinySpec(1, 5)
	spec.Retry = campaign.RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, Seed: 5}
	c, err := NewCoordinator("job", journal, spec, Options{LeaseTTL: time.Second, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	g1, _, err := c.Claim("w", nil)
	if err != nil || g1 == nil {
		t.Fatalf("claim 1: (%v, %v)", g1, err)
	}
	failRec, _ := campaign.NewRecord(g1.Cell.Key, 0, sweep.Result{
		Scenario: g1.Cell.Scenario,
		Method:   g1.Cell.Method.Name,
		Err:      errors.New("connection reset by chaos"),
	}).Sanitized()
	if err := c.Complete(g1.Lease, failRec, true); err != nil {
		t.Fatal(err)
	}
	// Behind the backoff gate: not immediately claimable.
	if g, done, _ := c.Claim("w", nil); g != nil || done {
		t.Fatalf("claim during backoff granted (%v, done=%v)", g, done)
	}
	clock.Advance(time.Second)
	g2, _, err := c.Claim("w", nil)
	if err != nil || g2 == nil {
		t.Fatalf("claim after backoff: (%v, %v)", g2, err)
	}
	// Second transient failure exhausts MaxAttempts=2: settled failed.
	if err := c.Complete(g2.Lease, failRec, true); err != nil {
		t.Fatal(err)
	}
	if g, done, _ := c.Claim("w", nil); g != nil || !done {
		t.Fatalf("exhausted cell re-leased (%v, done=%v)", g, done)
	}
	results, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("exhausted cell reported success")
	}
	recs, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[g1.Cell.Key]; got.Attempts != 2 {
		t.Fatalf("attempts = %d, want exactly MaxAttempts=2", got.Attempts)
	}
}

// TestCoordinatorRestartRecoversLeases: a coordinator rebuilt over the
// same journal path reattaches unexpired leases (the worker's old
// lease id keeps working) and drops expired ones back to pending.
func TestCoordinatorRestartRecoversLeases(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "job.jsonl")
	clock := newFakeClock()
	spec := tinySpec(2, 5)
	opts := Options{LeaseTTL: time.Minute, Clock: clock.Now}
	c1, err := NewCoordinator("job", journal, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	g1, _, err := c1.Claim("w1", nil)
	if err != nil || g1 == nil {
		t.Fatalf("claim 1: (%v, %v)", g1, err)
	}
	g2, _, err := c1.Claim("w2", nil)
	if err != nil || g2 == nil {
		t.Fatalf("claim 2: (%v, %v)", g2, err)
	}
	// Settle cell 1 before the "crash" so the restart sees a journaled
	// cell, a live lease, and nothing else.
	if err := c1.Complete(g1.Lease, runGrant(g1), false); err != nil {
		t.Fatal(err)
	}
	// Crash: c1 is abandoned without Run/close, exactly like kill -9.

	// Restart before expiry: w2's lease survives with its id.
	c2, err := NewCoordinator("job", journal, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Heartbeat(g2.Lease); err != nil {
		t.Fatalf("recovered lease heartbeat: %v", err)
	}
	// The settled cell is not re-leasable; the leased cell is held.
	if g, done, _ := c2.Claim("w3", nil); g != nil || done {
		t.Fatalf("restart re-leased something (%v, done=%v)", g, done)
	}
	if err := c2.Complete(g2.Lease, runGrant(g2), false); err != nil {
		t.Fatalf("recovered lease completion: %v", err)
	}
	results, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.FirstError(results); err != nil {
		t.Fatal(err)
	}
	for key, n := range journalKeyCounts(t, journal) {
		if n != 1 {
			t.Fatalf("cell %q journaled %d times", key, n)
		}
	}

	// Restart after expiry: the lease is dropped at load and the cell
	// is immediately re-leasable (fresh journal dir to start over).
	dir2 := t.TempDir()
	journal2 := filepath.Join(dir2, "job.jsonl")
	c3, err := NewCoordinator("job", journal2, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	g3, _, err := c3.Claim("w1", nil)
	if err != nil || g3 == nil {
		t.Fatalf("claim: (%v, %v)", g3, err)
	}
	clock.Advance(2 * time.Minute)
	c4, err := NewCoordinator("job", journal2, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Heartbeat(g3.Lease); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("expired lease survived restart: %v", err)
	}
	g4, _, err := c4.Claim("w4", nil)
	if err != nil || g4 == nil || g4.Cell.Key != g3.Cell.Key {
		t.Fatalf("expired cell not re-leased: (%v, %v)", g4, err)
	}
}

// TestMethodFilteredClaims: the coordinator only grants cells the
// claiming worker's method registry can execute.
func TestMethodFilteredClaims(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	spec := tinySpec(1, 5)
	spec.Opts.Methods = []sweep.MethodSpec{{Name: "traditional"}}
	c, err := NewCoordinator("job", filepath.Join(dir, "j.jsonl"), spec, Options{Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	if g, done, _ := c.Claim("w", []string{"oracle"}); g != nil || done {
		t.Fatalf("granted a cell the worker cannot run (%v, done=%v)", g, done)
	}
	if g, _, _ := c.Claim("w", []string{"oracle", "traditional"}); g == nil {
		t.Fatal("supported method refused")
	}
}

// TestLeaseLogTornTailProperty is the satellite recovery property:
// truncate the lease log at EVERY byte boundary of a mid-campaign
// snapshot and require the recovered coordinator to finish the
// campaign to the serial digest — re-leasing where grant records were
// lost, never double-journaling the settled cell, never exceeding the
// retry budget, never wedging.
func TestLeaseLogTornTailProperty(t *testing.T) {
	spec := tinySpec(2, 5)
	serial, err := campaign.Run("", spec)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.Digest(serial)

	// Build the mid-campaign state: cell 0 settled, cell 1 leased and
	// heartbeat once (so the log ends in an extend record).
	dir := t.TempDir()
	journal := filepath.Join(dir, "job.jsonl")
	clock := newFakeClock()
	opts := Options{LeaseTTL: time.Minute, Clock: clock.Now}
	c0, err := NewCoordinator("job", journal, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	g0, _, err := c0.Claim("w1", nil)
	if err != nil || g0 == nil {
		t.Fatalf("claim 0: (%v, %v)", g0, err)
	}
	g1, _, err := c0.Claim("w2", nil)
	if err != nil || g1 == nil {
		t.Fatalf("claim 1: (%v, %v)", g1, err)
	}
	if err := c0.Complete(g0.Lease, runGrant(g0), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Heartbeat(g1.Lease); err != nil {
		t.Fatal(err)
	}
	journalBytes, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	leaseBytes, err := os.ReadFile(leasePath(journal))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(leaseBytes); cut++ {
		caseDir := filepath.Join(dir, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(caseDir, 0o755); err != nil {
			t.Fatal(err)
		}
		j := filepath.Join(caseDir, "job.jsonl")
		if err := os.WriteFile(j, journalBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(leasePath(j), leaseBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator("job", j, spec, opts)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// Drive the campaign to completion: heartbeat the possibly
		// recovered lease, claim whatever is pending, complete it all.
		recovered := false
		if _, err := c.Heartbeat(g1.Lease); err == nil {
			recovered = true
			if err := c.Complete(g1.Lease, runGrant(g1), false); err != nil {
				t.Fatalf("cut %d: recovered-lease completion: %v", cut, err)
			}
		}
		for {
			g, done, err := c.Claim("w3", nil)
			if err != nil {
				t.Fatalf("cut %d: claim: %v", cut, err)
			}
			if g == nil {
				if !done {
					t.Fatalf("cut %d: coordinator wedged: pending cells but nothing claimable", cut)
				}
				break
			}
			if g.Cell.Key == g0.Cell.Key {
				t.Fatalf("cut %d: settled cell re-leased", cut)
			}
			if recovered {
				t.Fatalf("cut %d: cell leased twice after recovery", cut)
			}
			if err := c.Complete(g.Lease, runGrant(g), false); err != nil {
				t.Fatalf("cut %d: completion: %v", cut, err)
			}
		}
		results, err := c.Run()
		if err != nil {
			t.Fatalf("cut %d: run: %v", cut, err)
		}
		if got := campaign.Digest(results); got != want {
			t.Fatalf("cut %d: digest %s != serial %s", cut, got, want)
		}
		for key, n := range journalKeyCounts(t, j) {
			if n != 1 {
				t.Fatalf("cut %d: cell %q journaled %d times", cut, key, n)
			}
		}
	}
}

// TestEndToEndChaosDigest is the in-process chaos acceptance: a
// campaign fanned over the HTTP hub across three concurrent workers —
// one injecting deterministic drop/discard faults on every RPC kind —
// with a short lease TTL, must converge on the serial digest with no
// cell over its retry budget.
func TestEndToEndChaosDigest(t *testing.T) {
	spec := tinySpec(4, 6)
	spec.Retry = campaign.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Seed: 11}
	serial, err := campaign.Run("", spec)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.Digest(serial)

	hub := NewHub(Options{LeaseTTL: 2 * time.Second, ClaimRetry: 20 * time.Millisecond})
	mux := http.NewServeMux()
	hub.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	journal := filepath.Join(t.TempDir(), "job.jsonl")
	type out struct {
		results []sweep.Result
		err     error
	}
	doneCh := make(chan out, 1)
	go func() {
		results, err := hub.Run("job", journal, spec)
		doneCh <- out{results, err}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		var plan *FaultPlan
		if i == 0 {
			plan = &FaultPlan{Seed: 42, Drop: 0.3, Err: 0.3}
		}
		w, err := NewWorker(WorkerOptions{
			ID:           fmt.Sprintf("w%d", i),
			Client:       NewClient(srv.URL, plan),
			Poll:         10 * time.Millisecond,
			Retry:        campaign.RetryPolicy{BaseDelay: 5 * time.Millisecond, Seed: uint64(i)},
			ExitWhenDone: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(func() bool { return false })
		}()
	}

	res := <-doneCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	wg.Wait()
	if err := sweep.FirstError(res.results); err != nil {
		t.Fatal(err)
	}
	if got := campaign.Digest(res.results); got != want {
		t.Fatalf("distributed digest %s != serial %s", got, want)
	}
	recs, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(serial) {
		t.Fatalf("journal holds %d cells, want %d", len(recs), len(serial))
	}
	for key, rec := range recs {
		if rec.Attempts > spec.Retry.MaxAttempts {
			t.Fatalf("cell %q executed %d times, budget %d", key, rec.Attempts, spec.Retry.MaxAttempts)
		}
	}
	// A distributed journal resumes like any other: a serial Run over
	// it restores everything bit-identically without re-running.
	again, err := campaign.Run(journal, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaign.Digest(again); got != want {
		t.Fatalf("journal resume digest %s != serial %s", got, want)
	}
}
