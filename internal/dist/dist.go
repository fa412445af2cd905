// Package dist fans a campaign's cells across crash-prone worker
// processes and makes the fleet converge on the same bit-exact digest
// as a serial campaign.Run. It is the robustness layer over two
// existing facts: a campaign cell is an independent, keyed,
// deterministic unit (internal/campaign), and the journal already
// tolerates torn tails and bounded retries. dist adds the scheduling
// semantics — leases, liveness, recovery — that let those facts
// survive kill -9'd workers, stalled workers and restarted
// coordinators.
//
// Roles. The coordinator owns the campaign journal exclusively:
// workers never write it. Workers claim cells over HTTP, execute
// sweep.RunScenario, heartbeat to keep their lease alive, and report
// the serialized result back; the coordinator journals it and settles
// the cell. A worker that dies mid-cell simply stops heartbeating, its
// lease expires, and the cell is re-leased to another worker — no
// attempt is charged (campaign.Preemption), so preemption can never
// burn a cell's retry budget. A worker whose result fails — really
// fails — is journaled with an attempt count, bounded by the
// campaign's RetryPolicy exactly like a serial run, with transient
// failures re-leasable after the policy's deterministic seeded-jitter
// backoff.
//
// Lease protocol. A lease is (cell key, worker id, expiry), granted by
// Claim, extended by Heartbeat, released by Complete or expiry. Every
// lease transition is appended to a journal-adjacent log
// ("<journal>.leases", torn-tail tolerant like the journal itself), so
// a restarted coordinator recovers in-flight state: unexpired leases
// keep their workers, expired ones return to the pending pool, and a
// grant lost to a torn tail merely re-leases — the completion check
// against the *current* lease id is what prevents double-journaling.
//
// Why digests stay bit-exact. Cell results are functions of (scenario
// seed, method) only — never of which worker ran them, how many times
// they were preempted, or when. The coordinator journals exactly one
// settling record per cell, the journal's floats round-trip JSON
// bit-exactly, and results assemble in input order. Any chaos schedule
// therefore produces the identical campaign.Digest, which is what
// `make smoke-dist` enforces with real kill -9 / SIGSTOP / restart
// chaos.
//
// Fault injection is a first-class seam: FaultPlan is a deterministic,
// seed-keyed schedule of drop/delay/error faults on the RPC boundary,
// so chaos runs are reproducible bit for bit.
package dist

import (
	"errors"
	"io"
	"time"
)

// DefaultLeaseTTL is the lease lifetime when Options.LeaseTTL is
// unset. Workers heartbeat at a third of the TTL, so the default
// tolerates two lost heartbeats before reassignment.
const DefaultLeaseTTL = 10 * time.Second

// DefaultClaimRetry is how long the hub holds a claim that finds no
// claimable cell before answering "idle"/"done", and the retry hint
// that answer carries.
const DefaultClaimRetry = 200 * time.Millisecond

// Options configures coordinators (and the Hub that routes RPCs to
// them). The zero value is usable.
type Options struct {
	// LeaseTTL is how long a granted or heartbeat-extended lease lives
	// without another heartbeat (<= 0 selects DefaultLeaseTTL). It
	// bounds how long a dead worker can hold a cell hostage.
	LeaseTTL time.Duration
	// ClaimRetry bounds how long the hub holds a fruitless claim waiting
	// for a cell to become claimable, and is the retry-after hint of the
	// "idle"/"done" it then answers (<= 0 selects DefaultClaimRetry). It
	// is also the period at which a running coordinator sweeps for
	// expired leases when no RPC arrives to notice them.
	ClaimRetry time.Duration
	// Clock supplies the coordinator's notion of now, for lease expiry
	// only — wall-clock never reaches journal records or digests. Nil
	// selects the real clock; tests inject fakes to script expiries.
	Clock func() time.Time
	// BundleDir is the directory GET /bundles/{fingerprint} serves
	// trained model bundles from (the serving daemon's shared bundle
	// store). Empty disables the endpoint: bundle-bearing grants then
	// fail worker-side, so only coordinators that actually train should
	// leave it unset.
	BundleDir string
	// Log receives coordinator progress lines (nil = discard).
	Log io.Writer
}

// withDefaults resolves the option defaults.
func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.ClaimRetry <= 0 {
		o.ClaimRetry = DefaultClaimRetry
	}
	if o.Clock == nil {
		o.Clock = wallClock
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

// wallClock is the package's one wall-clock read: the default lease
// clock and the worker's claim pacing.
func wallClock() time.Time {
	//determlint:ignore nondet lease expiry and claim pacing are liveness, not physics: wall-clock never reaches journal records or digests
	return time.Now()
}

// preemptionError is a scheduling-level rejection: the work was taken
// away, not failed. It classifies as campaign.Preemption so no retry
// budget is ever charged for it.
type preemptionError string

// Error implements error.
func (e preemptionError) Error() string { return string(e) }

// Preemption marks the error as a preemption for campaign.Preemption.
func (preemptionError) Preemption() bool { return true }

// ErrLeaseExpired rejects a heartbeat or completion whose lease is no
// longer the cell's current one — it expired, was reassigned, or was
// lost to a coordinator restart's torn lease log. Workers treat it as
// preemption: discard the cell silently and claim fresh work.
var ErrLeaseExpired error = preemptionError("dist: lease expired or reassigned")

// ErrUnknownJob rejects an RPC naming a job the hub is not currently
// coordinating (finished, drained, or never existed). Like
// ErrLeaseExpired it is preemption, not failure.
var ErrUnknownJob error = preemptionError("dist: unknown or finished job")

// transientError is a synthetic transient failure (injected faults,
// 5xx responses); campaign.Transient recognizes it via the Transient
// marker so the normal retry/backoff machinery absorbs it.
type transientError string

// Error implements error.
func (e transientError) Error() string { return string(e) }

// Transient marks the error as retryable for campaign.Transient.
func (transientError) Transient() bool { return true }

// errClosed rejects RPCs against a coordinator whose Run has finished.
var errClosed = errors.New("dist: coordinator closed")
