package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dlpic/internal/campaign"
	"dlpic/internal/sweep"
)

// Grant is a leased cell: what a successful Claim hands a worker.
type Grant struct {
	// Lease is the lease id the worker heartbeats and completes with.
	Lease string
	// TTL is how long the lease lives without a heartbeat.
	TTL time.Duration
	// Cell is the unit of work (key, scenario, resolved method name).
	Cell campaign.Cell
	// SkipFit and KeepFinalState are the sweep options the cell must
	// run under — part of the cell's identity (they are folded into
	// the key), so the worker must honor them exactly.
	SkipFit        bool
	KeepFinalState bool
	// Bundles are the trained model bundles the cell's method needs,
	// fetchable from the coordinator's bundle endpoint (empty for
	// model-free methods).
	Bundles []BundleRef
}

// cellState tracks one campaign cell through the lease state machine:
// pending -> leased -> (settled | pending again), with settled
// absorbing. attempts counts journaled executions only — preempted
// leases (expiry, reassignment) go back to pending without charge.
type cellState struct {
	cell      campaign.Cell
	settled   bool
	res       sweep.Result
	attempts  int
	lease     string // "" when not leased
	worker    string
	expiry    time.Time
	notBefore time.Time // transient-failure backoff gate
}

// Coordinator schedules one campaign across remote workers. It is the
// single writer of the campaign journal; workers only ever execute
// cells and report records back. All lease transitions are persisted
// to the journal-adjacent lease log, so a coordinator restarted over
// the same journal path resumes with settled cells restored, live
// leases reattached, and expired ones back in the pending pool.
type Coordinator struct {
	job  string
	opts Options
	spec campaign.Spec
	// bundles maps a method name to the model bundles its cells need;
	// every grant of that method carries them.
	bundles map[string][]BundleRef

	journal *campaign.Journal
	leases  *leaseLog
	// wake tells whoever parks claims on this coordinator (the Hub) that
	// a cell just became claimable again; a no-op for a coordinator
	// driven directly. Called with mu held.
	wake func()

	mu      sync.Mutex
	cond    *sync.Cond
	cells   []*cellState
	byLease map[string]*cellState
	// claimers are the distinct worker ids that have claimed so far;
	// batched claims divide the pending pool across them so one eager
	// worker cannot hoard the campaign's tail.
	claimers    map[string]bool
	nextSeq     uint64
	maxAttempts int
	restored    int
	closed      bool
}

// NewCoordinator plans spec's cells, opens (or resumes) the campaign
// journal at journalPath and the lease log next to it, and returns a
// coordinator ready to serve ClaimBatch/HeartbeatBatch/Complete. Cells
// the journal already settles (successes, failures out of attempts) are
// restored bit-identically and never re-leased; unexpired leases from
// a previous coordinator incarnation stay with their workers.
//
// bundles are the trained model bundles the campaign's DL methods
// need: each grant of a method carries that method's refs, and the
// hub's bundle endpoint serves their bytes. Model-free campaigns pass
// none.
func NewCoordinator(job, journalPath string, spec campaign.Spec, opts Options, bundles ...BundleRef) (*Coordinator, error) {
	if journalPath == "" {
		return nil, fmt.Errorf("dist: coordinator needs a journal path")
	}
	cells, err := campaign.Cells(spec)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	journal, completed, err := campaign.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		job:         job,
		opts:        opts,
		spec:        spec,
		bundles:     make(map[string][]BundleRef),
		journal:     journal,
		wake:        func() {},
		byLease:     make(map[string]*cellState),
		claimers:    make(map[string]bool),
		maxAttempts: spec.Retry.Attempts(),
	}
	for _, ref := range bundles {
		c.bundles[ref.Method] = append(c.bundles[ref.Method], ref)
	}
	c.cond = sync.NewCond(&c.mu)
	c.cells = make([]*cellState, len(cells))
	byKey := make(map[string]*cellState, len(cells))
	for i, cell := range cells {
		cs := &cellState{cell: cell}
		if rec, ok := completed[cell.Key]; ok {
			if rec.Err == "" || rec.Attempts >= c.maxAttempts {
				cs.settled = true
				cs.res = rec.Result(cell.Scenario)
				c.restored++
			} else {
				cs.attempts = rec.Attempts
			}
		}
		c.cells[i] = cs
		byKey[cell.Key] = cs
	}
	now := opts.Clock()
	leases, active, nextSeq, err := openLeaseLog(leasePath(journalPath), now)
	if err != nil {
		journal.Close()
		return nil, err
	}
	c.leases = leases
	c.nextSeq = nextSeq
	// Reattach surviving leases in lease-id order so the release
	// records and log lines land deterministically. A lease whose cell
	// is already settled (its completion raced ahead of the release
	// record) or unknown (spec changed across the restart) is released
	// on the spot; its holder's next heartbeat gets ErrLeaseExpired and
	// the worker discards the cell as a preemption.
	ids := make([]string, 0, len(active))
	for id := range active {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := active[id]
		cs, ok := byKey[st.key]
		if !ok || cs.settled || cs.lease != "" {
			c.leases.append(leaseRecord{Event: leaseRelease, Lease: st.lease})
			continue
		}
		cs.lease = st.lease
		cs.worker = st.worker
		cs.expiry = st.expiry
		c.byLease[st.lease] = cs
		fmt.Fprintf(c.opts.Log, "[dist] job %s: recovered lease %s cell %d (worker %s)\n",
			c.job, st.lease, cs.cell.Index, st.worker)
	}
	return c, nil
}

// expireStaleLocked sweeps leases whose deadline passed: the holder is
// presumed dead, the lease is logged expired, and the cell returns to
// the pending pool with no attempt charged. Callers hold c.mu.
func (c *Coordinator) expireStaleLocked(now time.Time) {
	ids := make([]string, 0, len(c.byLease))
	for id := range c.byLease {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cs := c.byLease[id]
		if cs.expiry.After(now) {
			continue
		}
		fmt.Fprintf(c.opts.Log, "[dist] job %s: lease %s expired (worker %s, cell %d)\n",
			c.job, id, cs.worker, cs.cell.Index)
		c.leases.append(leaseRecord{Event: leaseExpire, Lease: id})
		delete(c.byLease, id)
		cs.lease, cs.worker = "", ""
		c.cond.Broadcast()
		c.wake()
	}
}

// interruptedLocked reports whether the campaign's drain interrupt has
// tripped. Callers hold c.mu (the callback itself must be
// concurrency-safe per campaign.Spec).
func (c *Coordinator) interruptedLocked() bool {
	return c.spec.Interrupt != nil && c.spec.Interrupt()
}

// ClaimBatch leases up to max eligible pending cells to worker in one
// call, amortizing the per-claim round-trip across the batch. A cell is
// eligible when it is not settled, not currently leased, past its
// transient-failure backoff gate, and runnable by one of the worker's
// methods (an empty methods list accepts anything). Each
// granted cell carries its own lease: expiry, heartbeat and completion
// accounting stay cell-granular, so one lease of a batch expiring (or
// failing) never releases its siblings. The effective batch size is
// worker-count-aware — capped at the pending pool divided by the
// number of distinct claimants seen so far — so a fleet's tail is
// spread across workers instead of queueing behind one batch. No
// grants and a false bool mean nothing is claimable right now — retry
// later; a true bool means every cell is settled and the campaign is
// finishing.
func (c *Coordinator) ClaimBatch(worker string, methods []string, max int) ([]*Grant, bool, error) {
	if max <= 0 {
		max = 1
	}
	supported := func(string) bool { return true }
	if len(methods) > 0 {
		set := make(map[string]bool, len(methods))
		for _, m := range methods {
			set[m] = true
		}
		supported = func(name string) bool { return set[name] }
	}
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, true, nil
	}
	c.claimers[worker] = true
	c.expireStaleLocked(now)
	if c.interruptedLocked() {
		// Draining: grant nothing new, let outstanding leases finish.
		return nil, false, nil
	}
	done := true
	var eligible []*cellState
	for _, cs := range c.cells {
		if cs.settled {
			continue
		}
		done = false
		if cs.lease != "" || now.Before(cs.notBefore) || !supported(cs.cell.Method.Name) {
			continue
		}
		eligible = append(eligible, cs)
	}
	if len(eligible) == 0 {
		return nil, done, nil
	}
	// Fair share: never hand one worker more than its slice of the
	// eligible pool (rounded up, floored at one cell).
	fair := (len(eligible) + len(c.claimers) - 1) / len(c.claimers)
	if fair < 1 {
		fair = 1
	}
	n := min(max, fair, len(eligible))
	grants := make([]*Grant, 0, n)
	for _, cs := range eligible[:n] {
		id := fmt.Sprintf("%s.%d", worker, c.nextSeq)
		c.nextSeq++
		cs.lease = id
		cs.worker = worker
		cs.expiry = now.Add(c.opts.LeaseTTL)
		c.byLease[id] = cs
		c.leases.append(leaseRecord{
			Event: leaseGrant, Seq: c.nextSeq - 1, Lease: id,
			Key: cs.cell.Key, Worker: worker, ExpiryNS: cs.expiry.UnixNano(),
		})
		fmt.Fprintf(c.opts.Log, "[dist] job %s: lease %s cell %d method %s -> worker %s\n",
			c.job, id, cs.cell.Index, cs.cell.Method.Name, worker)
		grants = append(grants, &Grant{
			Lease: id, TTL: c.opts.LeaseTTL, Cell: cs.cell,
			SkipFit:        c.spec.Opts.SkipFit,
			KeepFinalState: c.spec.Opts.KeepFinalState,
			Bundles:        c.bundles[cs.cell.Method.Name],
		})
	}
	return grants, false, nil
}

// HeartbeatBatch extends every live lease in leases with one lock
// acquisition (the batched-claim worker's single heartbeat RPC per
// tick) and returns the subset that is no longer current — expired,
// reassigned, or lost to a restart. Expiry stays per-lease: a dead
// sibling never poisons the rest of the batch.
func (c *Coordinator) HeartbeatBatch(leases []string) (time.Duration, []string) {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	var expired []string
	if c.closed {
		return 0, append(expired, leases...)
	}
	c.expireStaleLocked(now)
	for _, lease := range leases {
		cs, ok := c.byLease[lease]
		if !ok {
			expired = append(expired, lease)
			continue
		}
		cs.expiry = now.Add(c.opts.LeaseTTL)
		c.leases.append(leaseRecord{Event: leaseExtend, Lease: lease, ExpiryNS: cs.expiry.UnixNano()})
	}
	return c.opts.LeaseTTL, expired
}

// Complete accepts a finished cell from the current holder of lease,
// journals the (sanitized) record with the attempt charged, and either
// settles the cell or — transient failure with budget left — returns
// it to the pending pool behind the retry policy's deterministic
// backoff gate. transient is the worker's campaign.Transient verdict
// on the original error, which cannot be reclassified after the error
// has been flattened to a string for the wire.
//
// A completion from anything but the cell's current lease is rejected
// with ErrLeaseExpired and journals nothing: this is the
// double-journal guard. Once a lease expires and the cell is
// re-leased, the old holder's result — no matter how far its
// execution got — can never reach the journal.
func (c *Coordinator) Complete(lease string, rec campaign.Record, transient bool) error {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrLeaseExpired
	}
	c.expireStaleLocked(now)
	cs, ok := c.byLease[lease]
	if !ok {
		return ErrLeaseExpired
	}
	if rec.Key != cs.cell.Key {
		return fmt.Errorf("dist: lease %s completion key mismatch: got %q, leased %q", lease, rec.Key, cs.cell.Key)
	}
	cs.attempts++
	rec.Attempts = cs.attempts
	rec, _ = rec.Sanitized()
	if err := c.journal.Append(rec); err != nil {
		// The attempt stands (the execution happened) but the cell
		// cannot settle without a journal line; surface the failure.
		cs.attempts--
		return err
	}
	c.leases.append(leaseRecord{Event: leaseRelease, Lease: lease})
	delete(c.byLease, lease)
	cs.lease, cs.worker = "", ""
	if rec.Err == "" || cs.attempts >= c.maxAttempts || !transient {
		cs.settled = true
		cs.res = rec.Result(cs.cell.Scenario)
		fmt.Fprintf(c.opts.Log, "[dist] job %s: cell %d settled (attempts %d, err %q)\n",
			c.job, cs.cell.Index, cs.attempts, rec.Err)
		if p := c.spec.Opts.Progress; p != nil {
			p(c.settledLocked(), len(c.cells))
		}
	} else {
		cs.notBefore = now.Add(c.spec.Retry.Delay(cs.cell.Key, cs.attempts))
		fmt.Fprintf(c.opts.Log, "[dist] job %s: cell %d transient failure (attempt %d/%d), re-leasable\n",
			c.job, cs.cell.Index, cs.attempts, c.maxAttempts)
		c.wake()
	}
	c.cond.Broadcast()
	return nil
}

// settledLocked counts settled cells. Callers hold c.mu.
func (c *Coordinator) settledLocked() int {
	n := 0
	for _, cs := range c.cells {
		if cs.settled {
			n++
		}
	}
	return n
}

// Run blocks until every cell is settled — or, once the spec's drain
// interrupt trips, until outstanding leases resolve — then returns the
// campaign's results in input order, exactly the shape campaign.Run
// produces: settled cells carry their journaled results, drained ones
// campaign.ErrInterrupted. After Run returns the coordinator is
// closed; late RPCs get ErrLeaseExpired and journal nothing.
func (c *Coordinator) Run() ([]sweep.Result, error) {
	if p := c.spec.Opts.Progress; p != nil && c.restored > 0 {
		c.mu.Lock()
		p(c.restored, len(c.cells))
		c.mu.Unlock()
	}
	// The poker wakes the wait loop so lease expiry and the drain
	// interrupt are noticed even when no RPC arrives to notice them.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(c.opts.ClaimRetry)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.mu.Lock()
				c.expireStaleLocked(c.opts.Clock())
				c.cond.Broadcast()
				c.mu.Unlock()
			}
		}
	}()
	c.mu.Lock()
	for {
		if c.settledLocked() == len(c.cells) {
			break
		}
		if c.interruptedLocked() && len(c.byLease) == 0 {
			break
		}
		c.cond.Wait()
	}
	c.closed = true
	results := make([]sweep.Result, len(c.cells))
	for i, cs := range c.cells {
		if cs.settled {
			results[i] = cs.res
		} else {
			results[i] = sweep.Result{
				Scenario: cs.cell.Scenario, Method: cs.cell.Method.Name,
				Err: campaign.ErrInterrupted,
			}
		}
	}
	c.mu.Unlock()
	close(stop)
	wg.Wait()
	err1 := c.journal.Close()
	err2 := c.leases.Close()
	if err1 != nil {
		return results, err1
	}
	return results, err2
}
