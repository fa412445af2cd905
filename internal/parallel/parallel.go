// Package parallel provides the data-parallel loops used throughout the
// PIC and neural-network kernels, and the worker team they run on.
//
// # Determinism
//
// With the chunked primitives (ScatterReduce, ReduceSums) the
// range [0, n) is split into a fixed number of chunks that depends only
// on n — never on GOMAXPROCS — and per-chunk partial results are
// combined in chunk-index order. Because both the partial sums and the
// reduction order are invariant under the worker count, their output is
// bit-identical across any GOMAXPROCS setting, including the fully
// serial GOMAXPROCS=1 path. The PIC hot-path kernels (deposit, kick,
// field reductions) are built on these, which is what makes whole
// simulations reproducible across machines with different core counts.
//
// ScatterCount is the one primitive that reaches the same guarantee
// without a fixed decomposition: whole-number counts add exactly in
// float64, so every split and every reduction order gives the same
// bits. The NGP phase-space binning runs on it. For cuts [0, n) into one
// piece per worker, which is safe only for bodies that compute each
// element on its own.
//
// # The worker team
//
// A PIC step is four or five such loops of 50–150 µs each. Starting
// goroutines for every one of them means waking a sleeping thread every
// time, and that wake-up costs about as much as the second processor
// saves. So the fine-grained loops (For, ForThreshold, the
// scatter primitives) share one persistent team instead: GOMAXPROCS−1
// helper goroutines, started the first time they are wanted and kept
// for the life of the process. Four rules govern it.
//
//  1. The caller works. It publishes a job — the body, how many
//     indices, one word that hands them out — then takes indices itself
//     until none are left, and waits only for indices a helper has
//     already claimed, yielding the processor while it does. A helper
//     that is parked, descheduled or starved makes a loop slower; it
//     cannot make it hang, because the caller can run every index alone.
//     The caller takes indices from the front, helpers from the back, so
//     at two workers each core runs the same end of every loop: the
//     particles it gathered the field for are the ones it kicks, drifts
//     and deposits next, still in its own L2. Which worker runs an index
//     never changes what the index computes.
//  2. One job at a time. The team is taken with TryLock. A caller that
//     finds it taken — a second goroutine's loop, or a loop started from
//     inside a body — runs its own loop inline on its own goroutine.
//     Nothing else ever starts goroutines for a fine-grained loop.
//     Inline is result-neutral for the reason above: the chunked
//     primitives make the same body calls in the same decomposition
//     whoever runs them, For's bodies do not care where they are cut,
//     and ScatterCount's counts are exact under any split.
//  3. Idle helpers spin, then park. A helper without work watches the
//     job word in short runs of atomic loads with a runtime.Gosched
//     between runs, so any other runnable goroutine gets the processor
//     within a fraction of a microsecond. After a fixed number of runs
//     (spinRounds — a count, never a clock reading) it parks on a
//     channel, and a publisher sends a wake-up only to helpers it sees
//     parked. The budget outlasts the serial stretches inside a PIC step
//     (the longest is the ~120 µs batch-1 inference), so within a run
//     the helpers stay hot; an idle process has them parked, costing
//     nothing, within about a millisecond of its last loop.
//  4. Coarse pools stay on plain goroutines. ForPool and ForPoolWorkers
//     run millisecond-to-second tasks (whole simulations, training
//     shards); a join that spins is wrong at that scale and a wake-up is
//     noise. While such a pool runs, the fine-grained loops inside its
//     tasks run inline (poolDepth), as they always have.
//
// How many helpers may join a job is re-read from GOMAXPROCS on every
// call, so lowering it shrinks participation at once; the chunked
// decomposition never follows it. TeamStats counts what the team did.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolDepth counts ForPool and ForPoolWorkers invocations that
// currently have goroutine workers running. While one is active the
// fine-grained loops run inline: the outer pool already saturates the
// cores. Inlining never changes results — the chunked primitives are
// bit-identical serial vs parallel by construction.
var poolDepth atomic.Int32

// maxWorkers bounds the number of goroutines that take part in one
// fine-grained loop: the caller plus team helpers. It is re-read on
// every call and defaults to GOMAXPROCS, dropping to 1 inside an active
// ForPool.
func maxWorkers() int {
	if poolDepth.Load() > 0 {
		return 1
	}
	return teamSize(runtime.GOMAXPROCS(0))
}

// teamSize caps a worker count at what the team's state word can admit.
func teamSize(procs int) int { return min(procs, maxHelpers+1) }

// For splits the half-open index range [0, n) into one contiguous piece
// per worker and runs body(start, end) for each piece, on the calling
// goroutine and the team's helpers. It blocks until every piece
// completes. body must be safe to call concurrently on disjoint ranges.
// The split follows GOMAXPROCS, so body must compute each element
// independently of where the pieces are cut.
//
// For small n, and whenever the team is busy, the loop runs inline on the
// calling goroutine as body(0, n).
func For(n int, body func(start, end int)) {
	ForThreshold(n, 2048, body)
}

// ForThreshold is For with an explicit sequential cutoff: ranges shorter
// than threshold run inline.
func ForThreshold(n, threshold int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	workers := maxWorkers()
	if workers > n {
		workers = n
	}
	if n >= threshold && workers > 1 && crew.acquire() {
		piece := (n + workers - 1) / workers
		pieces := (n + piece - 1) / piece
		crew.run(job{kind: rangeJob, n: n, k: piece, rangeBody: body}, pieces, pieces)
		return
	}
	body(0, n)
}

// ---------------------------------------------------------------------------
// Deterministic chunked primitives

const (
	// chunkGrain is the minimum elements per chunk; ranges below it run
	// as a single chunk (inline, no goroutines).
	chunkGrain = 1024
	// chunkMax caps the chunk count so per-chunk accumulator memory
	// stays bounded for huge ranges.
	chunkMax = 64
)

// NumChunks returns the chunk count the chunked primitives split [0, n)
// into. It is a pure function of n (never of GOMAXPROCS), which is the
// invariant that makes chunked reductions bit-identical across worker
// counts.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	k := (n + chunkGrain - 1) / chunkGrain
	if k > chunkMax {
		k = chunkMax
	}
	return k
}

// chunkBounds returns the half-open range of chunk c when [0, n) is
// split into k near-equal chunks (the first n%k chunks get one extra).
func chunkBounds(n, k, c int) (start, end int) {
	base := n / k
	rem := n % k
	if c < rem {
		start = c * (base + 1)
		end = start + base + 1
		return
	}
	start = rem*(base+1) + (c-rem)*base
	end = start + base
	return
}

// runChunks runs a chunk-indexed job over all its chunks: on the team
// when more than one worker may run and the team is free, otherwise
// inline in chunk order.
func runChunks(j job) {
	workers := maxWorkers()
	if workers > j.k {
		workers = j.k
	}
	if workers > 1 && crew.acquire() {
		crew.run(j, j.k, workers)
		return
	}
	for c := 0; c < j.k; c++ {
		j.run(0, c)
	}
}

// scratchPool recycles the flat per-chunk accumulator buffers used by
// ScatterReduce and ReduceSums, so steady-state hot loops (one deposit
// per PIC step) stop allocating.
var scratchPool = sync.Pool{New: func() any { s := []float64(nil); return &s }}

func getScratch(size int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < size {
		*p = make([]float64, size)
	}
	*p = (*p)[:size]
	buf := *p
	for i := range buf {
		buf[i] = 0
	}
	return p
}

// ScatterReduce performs a deterministic parallel scatter-add into out:
// each chunk of [0, n) accumulates into a private zeroed buffer of
// len(out), and the per-chunk buffers are summed into out in chunk
// order. out is overwritten. body must add chunk-local contributions of
// elements [start, end) into acc and must not retain acc.
//
// Output is bit-identical for every GOMAXPROCS because the chunk
// decomposition depends only on n. For a single chunk, acc is out
// itself (no copy).
func ScatterReduce(n int, out []float64, body func(acc []float64, start, end int)) {
	for i := range out {
		out[i] = 0
	}
	if n <= 0 {
		return
	}
	width := len(out)
	k := NumChunks(n)
	if k == 1 || width == 0 {
		body(out, 0, n)
		return
	}
	p := getScratch(k * width)
	buf := *p
	runChunks(job{kind: scatterJob, n: n, k: k, accBody: body, out: out, buf: buf})
	for c := 0; c < k; c++ {
		row := buf[c*width : (c+1)*width]
		for i, v := range row {
			out[i] += v
		}
	}
	scratchPool.Put(p)
}

// ScatterCount is the scatter-add for contributions that are whole
// counts (an NGP histogram: every element adds 1 to one slot). A float64
// holds every integer up to 2^53 exactly and the sum of two such
// integers is exact, so while the total count stays below 2^53 the
// result does not depend on how [0, n) is split or in which order the
// partial counts are added — the accumulator per chunk and the
// chunk-order reduction ScatterReduce pays for buy nothing here.
// ScatterCount keeps one accumulator per worker instead: the workers
// split the chunks of [0, n) between them, the caller counts straight
// into out and every helper into one private buffer that is added to out
// afterwards. When the loop runs inline — one processor, a single chunk,
// a busy team, or inside a ForPool — the whole range counts into out
// and no buffer exists. out is overwritten. body must add only
// non-negative whole numbers to acc for elements [start, end) and must
// not retain acc.
//
// Fractional weights (CIC binning, the charge deposit) round differently
// under different splits and must stay on ScatterReduce.
func ScatterCount(n int, out []float64, body func(acc []float64, start, end int)) {
	for i := range out {
		out[i] = 0
	}
	if n <= 0 {
		return
	}
	width := len(out)
	k := NumChunks(n)
	workers := maxWorkers()
	if workers > k {
		workers = k
	}
	if workers == 1 || width == 0 || !crew.acquire() {
		body(out, 0, n)
		return
	}
	p := getScratch((workers - 1) * width)
	buf := *p
	crew.run(job{kind: countJob, n: n, k: k, accBody: body, out: out, buf: buf}, k, workers)
	for w := 1; w < workers; w++ {
		for i, v := range buf[(w-1)*width : w*width] {
			out[i] += v
		}
	}
	scratchPool.Put(p)
}

// ReduceSums is ScatterReduce for a handful of scalar accumulators
// (e.g. the kinetic-energy and momentum sums of a velocity kick): body
// adds the partial sums of elements [start, end) into partial (length
// len(sums)), and the per-chunk partials are combined into sums in
// chunk order. sums is overwritten. Deterministic across GOMAXPROCS
// for the same reason as ScatterReduce.
func ReduceSums(n int, sums []float64, body func(partial []float64, start, end int)) {
	ScatterReduce(n, sums, body)
}

// ForPool runs task(i) for every i in [0, n) on up to workers
// goroutines pulling indices from a shared counter. It is the
// coarse-grained counterpart of For, intended for heavyweight
// independent tasks (whole simulation runs in a sweep); workers <= 0
// selects GOMAXPROCS. Tasks must synchronize any shared state
// themselves; writing to per-index slots needs no locking.
// While the pool's goroutines run, the fine-grained loops inside the
// tasks execute inline (see poolDepth): coarse outer parallelism wins
// over nested fan-out. A pool that runs serially (workers resolves to
// 1) leaves inner parallelism enabled — there the kernels are the only
// source of concurrency. It is ForPoolWorkers for tasks that do not
// need to know their worker.
func ForPool(n, workers int, task func(i int)) {
	ForPoolWorkers(n, workers, func(_, i int) { task(i) })
}
