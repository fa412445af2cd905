package dist

import (
	"fmt"
	"io"
	"slices"
	"time"

	"dlpic/internal/campaign"
	"dlpic/internal/sweep"
)

// WorkerOptions configures one worker process (or in-process worker
// loop in tests).
type WorkerOptions struct {
	// ID identifies the worker in leases and logs.
	ID string
	// Client is the RPC handle to the coordinator hub (NewClient).
	Client *Client
	// Methods is the worker's method registry: the backends it can
	// execute, matched to cells by name. Empty selects the traditional
	// method only.
	Methods []sweep.MethodSpec
	// BundleMethods are additional method names the worker claims and
	// serves from coordinator-shipped model bundles instead of its
	// local registry: a grant for one of these names carries BundleRefs,
	// the worker fetches them through Cache, and BundleMethod turns the
	// cached file into an executable MethodSpec. Requires Cache and
	// BundleMethod.
	BundleMethods []string
	// Cache is the worker's on-disk LRU bundle cache (NewBundleCache).
	// Required when BundleMethods is non-empty.
	Cache *BundleCache
	// BundleMethod constructs the MethodSpec of one bundle-backed
	// method from a locally cached bundle file. Required when
	// BundleMethods is non-empty. The construction must execute
	// identically to the serial registry's (experiments.BundleMethod
	// mirrors the per-call DL path), or digests diverge.
	BundleMethod func(method, path string) (sweep.MethodSpec, error)
	// ClaimBatch asks the coordinator for up to this many cells per
	// claim round-trip (<= 0 asks for one). Granted cells execute
	// sequentially with per-cell completion; all still-pending leases
	// of the batch are extended by a single heartbeat RPC per tick.
	ClaimBatch int
	// Poll is the claim period when the coordinator reports idle and
	// gives no hint, and the floor of RPC-error backoff (<= 0 selects
	// DefaultClaimRetry). A hub that holds fruitless claims has already
	// spent the period by the time it answers, so against one Poll only
	// paces error retries.
	Poll time.Duration
	// Retry paces RPC retries (claims through a restarting
	// coordinator, completes through injected faults) with the same
	// deterministic seeded-jitter schedule campaigns use for cells.
	Retry campaign.RetryPolicy
	// ExitWhenDone stops Run when the coordinator reports every job
	// done, instead of claiming on for future jobs. Tests and one-shot
	// workers set it; service workers claim forever.
	ExitWhenDone bool
	// Log receives worker progress lines (nil = discard).
	Log io.Writer
}

// Worker claims cells from a coordinator hub, executes them with
// sweep.RunScenario, heartbeats to keep its leases alive, and reports
// results back for journaling. It never touches the journal itself —
// a worker killed at any instant loses only its leases, never the
// campaign's consistency.
type Worker struct {
	opts        WorkerOptions
	methods     map[string]sweep.MethodSpec
	bundleNames map[string]bool
	// resolved holds, per bundle-backed method name, the last grant refs
	// that resolved and the spec built from their verified bytes. Only
	// the goroutine executing a cell touches it, and cells execute one at
	// a time.
	resolved map[string]resolvedMethod
}

// resolvedMethod is one method's memoised bundle resolution.
type resolvedMethod struct {
	refs []BundleRef
	spec sweep.MethodSpec
}

// sameBundles reports whether two grants name the same bundle bytes:
// the same (Method, Fingerprint, Digest) refs in the same order. Size
// is informational and not compared.
func sameBundles(a, b []BundleRef) bool {
	return slices.EqualFunc(a, b, func(x, y BundleRef) bool {
		return x.Method == y.Method && x.Fingerprint == y.Fingerprint && x.Digest == y.Digest
	})
}

// NewWorker builds a worker. The methods registry is resolved like a
// sweep's — empty means traditional, unless the worker is
// bundle-methods-only, in which case it claims exactly those names.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	var methods []sweep.MethodSpec
	if len(opts.Methods) > 0 || len(opts.BundleMethods) == 0 {
		var err error
		methods, err = sweep.ResolveMethods(opts.Methods)
		if err != nil {
			return nil, err
		}
	}
	if opts.ID == "" {
		return nil, fmt.Errorf("dist: worker needs an ID")
	}
	if opts.Client == nil {
		return nil, fmt.Errorf("dist: worker needs a Client")
	}
	if len(opts.BundleMethods) > 0 && (opts.Cache == nil || opts.BundleMethod == nil) {
		return nil, fmt.Errorf("dist: bundle-backed methods need a Cache and a BundleMethod constructor")
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultClaimRetry
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	w := &Worker{
		opts:        opts,
		methods:     make(map[string]sweep.MethodSpec, len(methods)),
		bundleNames: make(map[string]bool, len(opts.BundleMethods)),
		resolved:    make(map[string]resolvedMethod, len(opts.BundleMethods)),
	}
	for _, m := range methods {
		w.methods[m.Name] = m
	}
	for _, name := range opts.BundleMethods {
		w.bundleNames[name] = true
	}
	return w, nil
}

// methodNames returns the claimable names in deterministic order for
// the claim request: the local registry's, then the bundle-backed
// ones.
func (w *Worker) methodNames() []string {
	names := make([]string, 0, len(w.methods)+len(w.opts.BundleMethods))
	for _, m := range w.opts.Methods {
		names = append(names, m.Name)
	}
	if len(names) == 0 && len(w.methods) > 0 {
		names = []string{"traditional"}
	}
	for _, name := range w.opts.BundleMethods {
		if _, dup := w.methods[name]; !dup {
			names = append(names, name)
		}
	}
	return names
}

// Run is the worker loop: claim (a batch), execute with heartbeats,
// complete per cell, repeat. It returns when stop reports true
// (checked between cells — a graceful stop never abandons a cell
// mid-execution; the rest of a claimed batch is left to lease expiry)
// or, with ExitWhenDone, when the hub reports all jobs done. Every
// error a worker can encounter is absorbed into the lease protocol:
// transient RPC failures retry with deterministic backoff, and a lost
// lease (ErrLeaseExpired) means the cell belongs to someone else now —
// the result is discarded without a word to the journal.
func (w *Worker) Run(stop func() bool) error {
	names := w.methodNames()
	claimFails := 0
	for !stop() {
		sent := wallClock()
		resp, err := w.opts.Client.Claim(w.opts.ID, names, w.opts.ClaimBatch)
		if err != nil {
			// A dead or restarting coordinator looks like transient
			// claim failures; back off deterministically and keep
			// trying until stopped.
			claimFails++
			w.sleepRetry("rpc|claim", claimFails)
			continue
		}
		claimFails = 0
		switch resp.Status {
		case "cell":
			w.runBatch(resp, stop)
		case "done":
			if w.opts.ExitWhenDone {
				return nil
			}
			w.idle(resp, sent)
		default: // "idle"
			w.idle(resp, sent)
		}
	}
	return nil
}

// idle sleeps out what is left of the claim period — the coordinator's
// retry hint, or the worker's own poll period — counted from when the
// fruitless claim was sent. A hub that held the claim for the whole
// period leaves nothing to sleep; one that answered at once leaves all
// of it.
func (w *Worker) idle(resp ClaimResponse, sent time.Time) {
	d := time.Duration(resp.RetryMS) * time.Millisecond
	if d <= 0 {
		d = w.opts.Poll
	}
	if d -= wallClock().Sub(sent); d > 0 {
		time.Sleep(d)
	}
}

// sleepRetry backs off an RPC retry on the policy's deterministic
// schedule, floored at the poll period so a zero policy still paces.
func (w *Worker) sleepRetry(key string, attempt int) {
	d := w.opts.Retry.Delay(key, attempt)
	if d <= 0 {
		d = w.opts.Poll
	}
	time.Sleep(d)
}

// batchState tracks the leases of one claimed batch through its
// sequential execution: pending leases are extended by every heartbeat
// tick, leases the coordinator reports expired are skipped (not yet
// started) or condemned (currently running).
type batchState struct {
	// pending are the leases still owed a completion, in grant order.
	pending []string
	skip    map[string]bool
}

// remove drops a lease from the pending set (completed or condemned).
func (b *batchState) remove(lease string) {
	for i, l := range b.pending {
		if l == lease {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			return
		}
	}
}

// runBatch executes one claim's grants in order, per-cell completion,
// one heartbeat RPC per tick covering every still-pending lease of the
// batch. A lease the coordinator stops honoring is handled
// cell-granularly: a not-yet-started cell is skipped, the running
// cell's result is condemned (drained, discarded), and the siblings
// carry on.
func (w *Worker) runBatch(resp ClaimResponse, stop func() bool) {
	if len(resp.Cells) == 0 {
		return
	}
	st := &batchState{skip: make(map[string]bool)}
	for _, g := range resp.Cells {
		st.pending = append(st.pending, g.Lease)
	}
	if len(resp.Cells) > 1 {
		fmt.Fprintf(w.opts.Log, "[worker %s] claimed batch of %d cells\n", w.opts.ID, len(resp.Cells))
	}
	ttl := time.Duration(resp.Cells[0].TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hb := time.NewTicker(ttl / 3)
	defer hb.Stop()
	for i, g := range resp.Cells {
		if st.skip[g.Lease] {
			fmt.Fprintf(w.opts.Log, "[worker %s] cell %d: lease %s lost before start, skipping\n",
				w.opts.ID, g.Index, g.Lease)
			st.remove(g.Lease)
			continue
		}
		if i > 0 && stop() {
			// Graceful stop mid-batch: the rest of the batch is left to
			// lease expiry (no result is lost — nothing ran).
			return
		}
		w.runCell(resp.Job, g, st, hb, stop)
	}
}

// runCell executes one granted cell under the batch's heartbeats and
// reports the outcome. The execution (bundle resolution included —
// downloads happen under heartbeat cover, so a slow transfer cannot
// cost the lease) runs in its own goroutine while the worker
// heartbeats every still-pending lease of the batch; a heartbeat that
// stops honoring this cell's lease condemns the result, which is
// discarded once the run drains. Preemption by lease loss charges no
// attempt anywhere, by construction: only a Complete accepted by the
// coordinator journals anything.
func (w *Worker) runCell(job string, g CellGrant, st *batchState, hb *time.Ticker, stop func() bool) {
	fmt.Fprintf(w.opts.Log, "[worker %s] cell %d (%s, %s): start (lease %s)\n",
		w.opts.ID, g.Index, g.Scenario.Name, g.Method, g.Lease)
	resCh := make(chan sweep.Result, 1)
	go func() { resCh <- w.executeCell(g) }()

	leaseLost := false
	var res sweep.Result
running:
	for {
		select {
		case res = <-resCh:
			break running
		case <-hb.C:
			_, expired, err := w.opts.Client.Heartbeat(job, st.pending)
			switch {
			case err == nil:
				for _, lease := range expired {
					if lease == g.Lease {
						leaseLost = true
					} else {
						st.skip[lease] = true
					}
					st.remove(lease)
				}
			case campaign.Preemption(err):
				// Every lease of the batch is gone (coordinator restart
				// that lost the log, or all expired at once).
				for _, lease := range st.pending {
					if lease != g.Lease {
						st.skip[lease] = true
					}
				}
				st.pending = nil
				leaseLost = true
			default:
				// Transient heartbeat hiccup: the next tick retries.
			}
			if leaseLost {
				// Reassigned out from under us. Keep draining the run
				// (the goroutine owns real resources) but the result is
				// already condemned.
				fmt.Fprintf(w.opts.Log, "[worker %s] cell %d: lease %s lost, draining\n",
					w.opts.ID, g.Index, g.Lease)
				res = <-resCh
				break running
			}
		}
	}
	st.remove(g.Lease)
	if leaseLost {
		return
	}
	w.complete(job, g, res, stop)
}

// executeCell resolves the cell's method — from the local registry or
// from coordinator-shipped bundles — and runs the physics. Resolution
// failures become the cell's result (permanent or transient per the
// error's own classification), never a wedged lease.
func (w *Worker) executeCell(g CellGrant) sweep.Result {
	method, err := w.methodFor(g)
	if err != nil {
		return sweep.Result{Scenario: g.Scenario, Method: g.Method, Err: err}
	}
	opts := sweep.Options{SkipFit: g.SkipFit, KeepFinalState: g.KeepFinalState}
	return sweep.RunScenario(g.Scenario, method, opts)
}

// methodFor resolves one grant's method. Bundle-bearing grants go
// through the cache (one download per worker) and the BundleMethod
// constructor once per distinct set of refs: the spec is kept per
// method name, and a later grant naming the same (Method, Fingerprint,
// Digest) refs reuses it — it was built from bytes that hashed to
// exactly those digests, so a cell still only ever runs a model whose
// bytes matched its grant. Any other refs, and any failure, go back
// through the verifying path; failures are never remembered.
// Everything else resolves through the local registry. A bundle-backed
// name arriving without refs is a protocol bug and fails permanently —
// executing it from the local registry would silently run the wrong
// physics.
func (w *Worker) methodFor(g CellGrant) (sweep.MethodSpec, error) {
	if len(g.Bundles) == 0 {
		if w.bundleNames[g.Method] {
			return sweep.MethodSpec{}, fmt.Errorf(
				"dist: method %q is bundle-backed but the grant carries no bundle refs", g.Method)
		}
		method, ok := w.methods[g.Method]
		if !ok {
			// The coordinator filtered on our claimed names, so this is
			// a protocol bug, not a physics failure; report it as a
			// permanent cell failure rather than wedging the cell.
			return sweep.MethodSpec{}, fmt.Errorf("dist: worker %s cannot run method %q", w.opts.ID, g.Method)
		}
		return method, nil
	}
	if w.opts.Cache == nil || w.opts.BundleMethod == nil {
		return sweep.MethodSpec{}, fmt.Errorf(
			"dist: grant for method %q needs bundles but this worker has no cache (-cache-dir)", g.Method)
	}
	if last, ok := w.resolved[g.Method]; ok && sameBundles(last.refs, g.Bundles) {
		for _, ref := range g.Bundles {
			fmt.Fprintf(w.opts.Log, "[worker %s] bundle %s: cache hit\n", w.opts.ID, ref.Fingerprint)
		}
		return last.spec, nil
	}
	var path string
	for _, ref := range g.Bundles {
		p, err := w.fetchBundle(ref)
		if err != nil {
			return sweep.MethodSpec{}, err
		}
		if ref.Method == g.Method || path == "" {
			path = p
		}
	}
	spec, err := w.opts.BundleMethod(g.Method, path)
	if err != nil {
		return sweep.MethodSpec{}, err
	}
	w.resolved[g.Method] = resolvedMethod{refs: slices.Clone(g.Bundles), spec: spec}
	return spec, nil
}

// maxBundleFetches bounds in-cell retries of a transiently failing
// bundle download before the failure is surfaced as the cell's
// (transient) result and the coordinator's retry budget takes over.
const maxBundleFetches = 5

// fetchBundle resolves one BundleRef to a local file through the
// worker cache, retrying transient transport failures on the worker's
// deterministic backoff schedule. The heartbeat loop keeps running
// while this blocks (it is called on the execution goroutine), so a
// stalled download costs time, not the lease.
func (w *Worker) fetchBundle(ref BundleRef) (string, error) {
	for attempt := 1; ; attempt++ {
		path, hit, err := w.opts.Cache.Get(ref, func() ([]byte, error) {
			fmt.Fprintf(w.opts.Log, "[worker %s] bundle %s: downloading from coordinator\n",
				w.opts.ID, ref.Fingerprint)
			return w.opts.Client.FetchBundle(ref.Fingerprint)
		})
		if err == nil {
			if hit {
				fmt.Fprintf(w.opts.Log, "[worker %s] bundle %s: cache hit\n", w.opts.ID, ref.Fingerprint)
			} else {
				fmt.Fprintf(w.opts.Log, "[worker %s] bundle %s: downloaded and cached (%d bytes)\n",
					w.opts.ID, ref.Fingerprint, ref.Size)
			}
			return path, nil
		}
		if !campaign.Transient(err) || attempt >= maxBundleFetches {
			return "", err
		}
		fmt.Fprintf(w.opts.Log, "[worker %s] bundle %s: fetch attempt %d failed (%v), retrying\n",
			w.opts.ID, ref.Fingerprint, attempt, err)
		w.sleepRetry("rpc|bundle|"+ref.Fingerprint, attempt)
	}
}

// complete reports one executed cell, retrying transient RPC failures
// with deterministic backoff until the coordinator accepts the record,
// rejects the lease (someone else owns the cell now — discard), or the
// worker is stopped. The record is sanitized before the wire for the
// same reason campaigns sanitize before the journal: the wire is JSON
// too, and the coordinator must journal exactly the record a serial
// run would have.
func (w *Worker) complete(job string, g CellGrant, res sweep.Result, stop func() bool) {
	transient := campaign.Transient(res.Err)
	rec, _ := campaign.NewRecord(g.Key, 0, res).Sanitized()
	for attempt := 1; ; attempt++ {
		err := w.opts.Client.Complete(job, g.Lease, rec, transient)
		if err == nil {
			fmt.Fprintf(w.opts.Log, "[worker %s] cell %d: completed (err %q)\n",
				w.opts.ID, g.Index, rec.Err)
			return
		}
		if campaign.Preemption(err) {
			fmt.Fprintf(w.opts.Log, "[worker %s] cell %d: completion rejected, lease %s gone\n",
				w.opts.ID, g.Index, g.Lease)
			return
		}
		if !campaign.Transient(err) || stop() {
			fmt.Fprintf(w.opts.Log, "[worker %s] cell %d: completion abandoned: %v\n",
				w.opts.ID, g.Index, err)
			return
		}
		w.sleepRetry("rpc|complete|"+g.Lease, attempt)
	}
}
