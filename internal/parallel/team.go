package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// jobKind says how a job's index maps to a body call.
type jobKind uint8

const (
	// rangeJob is ForThreshold: index i is the piece [i*k, (i+1)*k) of
	// [0, n), the last one cut at n.
	rangeJob jobKind = iota
	// scatterJob is ScatterReduce: chunk c accumulates into row c of buf.
	scatterJob
	// countJob is ScatterCount: a chunk accumulates into the row of the
	// worker that runs it, the caller's row being out itself.
	countJob
)

// job is one fine-grained loop as the team sees it: a kind, the
// decomposition and the caller's body. It holds the body in a typed
// field per kind instead of behind one adapter closure, so publishing a
// job allocates nothing.
type job struct {
	kind jobKind
	n, k int // range length; chunk count, or piece length for rangeJob

	rangeBody func(start, end int)
	accBody   func(acc []float64, start, end int)
	out, buf  []float64 // accBody's accumulators: buf is rows of len(out)
}

// run executes index i of the job. worker is 0 for the goroutine that
// called the primitive and h+1 for helper h.
func (j *job) run(worker, i int) {
	if j.kind == rangeJob {
		start := i * j.k
		end := start + j.k
		if end > j.n {
			end = j.n
		}
		j.rangeBody(start, end)
		return
	}
	start, end := chunkBounds(j.n, j.k, i)
	width := len(j.out)
	switch j.kind {
	case scatterJob:
		j.accBody(j.buf[i*width:(i+1)*width], start, end)
	case countJob:
		acc := j.out
		if worker > 0 {
			acc = j.buf[(worker-1)*width : worker*width]
		}
		j.accBody(acc, start, end)
	}
}

const (
	// spinLoads is the run of atomic loads a waiting goroutine makes
	// between two runtime.Gosched calls: long enough that a waiter is
	// mostly watching rather than inside the scheduler, short enough
	// (a fraction of a microsecond) that any other runnable goroutine
	// gets the processor at once.
	spinLoads = 128
	// spinRounds is how many such runs an idle helper makes before it
	// parks. It is an iteration count, not a duration — nothing here
	// reads a clock — sized so that a helper outlasts the longest serial
	// stretch between two loops of one PIC step (the batch-1 inference,
	// ~120 µs) several times over and still parks within a millisecond
	// of the last loop on an otherwise idle machine (0.4 ms at 2.6 GHz).
	spinRounds = 2048
	// cacheLine is the padding unit that keeps the team's hot words off
	// each other's cache lines (64 bytes on amd64 and arm64).
	cacheLine = 64
)

// team is the persistent worker team under the fine-grained loops. See
// the package comment for the rules it keeps.
type team struct {
	// mu is held by the one caller whose job is open. It is only ever
	// TryLocked: a caller that finds it taken runs its loop inline.
	mu      sync.Mutex
	helpers []*helper // grown under mu, never shrunk

	// job describes the open job. It is written under mu while state is
	// zero and no helper is active, and read by a helper only after a
	// successful claim.
	job job

	// state admits helpers to the open job and hands out its indices in
	// one word (see stateWord). A claim is a compare-and-swap of the
	// whole word, so it succeeds only against the job whose admission it
	// checked. Idle helpers spin on it, so it and active each get a cache
	// line to themselves: publishing a job or bumping a counter does not
	// invalidate the line the helpers are watching.
	_     [cacheLine]byte
	state atomic.Uint64
	_     [cacheLine - 8]byte
	// active counts helpers between seeing claimable work and finishing
	// the last index they took. The caller leaves a job only at zero.
	active atomic.Int32
	_      [cacheLine - 4]byte

	dispatches, inline, joins, parks, wakes atomic.Uint64
}

// helper is one process-lifetime goroutine of the team.
type helper struct {
	id     int
	parked atomic.Bool
	wake   chan struct{} // capacity 1: a wake-up sent before the park is kept
}

var crew team

// acquire reports whether the caller now owns the team. If it does not —
// another goroutine's loop is open, or the caller is itself inside a
// body of one — it must run its loop inline.
func (t *team) acquire() bool {
	if t.mu.TryLock() {
		return true
	}
	t.inline.Add(1)
	return false
}

// run executes j.run(w, i) for every i in [0, count) on the calling
// goroutine and up to workers-1 helpers, and releases the team. The
// caller must have acquired it; workers is in [2, count].
func (t *team) run(j job, count, workers int) {
	helpers := workers - 1
	for len(t.helpers) < helpers {
		h := &helper{id: len(t.helpers), wake: make(chan struct{}, 1)}
		t.helpers = append(t.helpers, h)
		go h.loop(t)
	}
	t.job = j
	t.dispatches.Add(1)
	t.state.Store(stateWord(0, count, helpers))
	for _, h := range t.helpers[:helpers] {
		if h.parked.Load() {
			select {
			case h.wake <- struct{}{}:
				t.wakes.Add(1)
			default: // an earlier wake-up is still in the channel
			}
		}
	}
	defer t.finish()
	for {
		i, ok := t.claim(-1)
		if !ok {
			return
		}
		t.job.run(0, i)
	}
}

// finish waits for the indices helpers have claimed and releases the
// team. It waits for nothing else: an index no helper took was run by
// the caller, so a helper that is parked or descheduled delays a job but
// cannot hang it.
func (t *team) finish() {
	t.state.Store(0) // nothing is left unless a body panicked: stop further claims
	for spin := 1; t.active.Load() != 0; spin++ {
		if spin%spinLoads == 0 {
			runtime.Gosched()
		}
	}
	t.job = job{} // let go of the caller's closure and buffers
	t.mu.Unlock()
}

// claim takes one unclaimed index of the open job: the lowest for the
// caller (id -1), the highest for helper id.
func (t *team) claim(id int) (int, bool) {
	for {
		v := t.state.Load()
		if !admits(v, id) {
			return 0, false
		}
		lo, hi, _ := window(v)
		i, next := lo, v+1 // the caller raises lo
		if id >= 0 {
			i, next = hi-1, v-1<<indexBits // a helper lowers hi
		}
		if t.state.CompareAndSwap(v, next) {
			return i, true
		}
	}
}

// The state word holds lo and hi in indexBits each, low bits first, and
// the admitted-helper count in the top 16 bits. A claim moves lo up or
// hi down only while lo < hi, so it never carries across a field. A
// chunk job has at most chunkMax indices, a range job one per worker,
// and teamSize caps the workers at maxHelpers+1: every job fits.
const (
	indexBits  = 24
	indexMask  = 1<<indexBits - 1
	maxHelpers = 1<<(64-2*indexBits) - 1
)

// stateWord packs a job's unclaimed window [lo, hi) and admitted helpers.
func stateWord(lo, hi, helpers int) uint64 {
	return uint64(helpers)<<(2*indexBits) | uint64(hi)<<indexBits | uint64(lo)
}

// window unpacks state word v.
func window(v uint64) (lo, hi, helpers int) {
	return int(v & indexMask), int(v >> indexBits & indexMask), int(v >> (2 * indexBits))
}

// admits reports whether state word v has an index helper id may take.
func admits(v uint64, id int) bool {
	lo, hi, helpers := window(v)
	return lo < hi && id < helpers
}

// loop is the helper's life: wait for claimable work, drain it, repeat.
func (h *helper) loop(t *team) {
	for {
		h.await(t)
		if h.drain(t) {
			t.joins.Add(1)
		}
	}
}

// drain runs indices of the open job until none is left for h and
// reports whether it ran any. active is dropped in a defer so that a body
// which ends this goroutine (runtime.Goexit, as t.FailNow does) costs the
// team a helper, not every later caller its finish.
func (h *helper) drain(t *team) (joined bool) {
	t.active.Add(1)
	defer t.active.Add(-1)
	for {
		i, ok := t.claim(h.id)
		if !ok {
			return joined
		}
		joined = true
		t.job.run(h.id+1, i)
	}
}

// await returns when the team's state admits h. It spin-yields through
// the budget and then parks on h.wake until a publisher signals.
func (h *helper) await(t *team) {
	for {
		for round := 0; round < spinRounds; round++ {
			for i := 0; i < spinLoads; i++ {
				if admits(t.state.Load(), h.id) {
					return
				}
			}
			runtime.Gosched()
		}
		// Announce the park before the last look: a publisher stores
		// state before it reads parked, so one of the two sees the other.
		h.parked.Store(true)
		if admits(t.state.Load(), h.id) {
			h.parked.Store(false)
			return
		}
		t.parks.Add(1)
		<-h.wake
		h.parked.Store(false)
	}
}

// TeamCounters is a snapshot of the worker team's event counts since
// process start. They describe scheduling only and must never reach a
// digest, journal or model file.
type TeamCounters struct {
	Dispatches uint64 // loops run on the team
	Inline     uint64 // loops run inline because the team was busy
	Joins      uint64 // times a helper took part in a loop
	Parks      uint64 // times a helper ran out its spin budget and parked
	Wakes      uint64 // times a publisher woke a parked helper
}

// TeamStats returns the worker team's counters.
//
//deadcode:keep A.2: /metrics exports these; until then the team tests read them
func TeamStats() TeamCounters {
	return TeamCounters{
		Dispatches: crew.dispatches.Load(),
		Inline:     crew.inline.Load(),
		Joins:      crew.joins.Load(),
		Parks:      crew.parks.Load(),
		Wakes:      crew.wakes.Load(),
	}
}
