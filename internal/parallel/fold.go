package parallel

import (
	"sync"
	"sync/atomic"
)

// ChunkBounds returns the half-open element range of chunk c when
// [0, n) is split into k near-equal chunks (the first n%k chunks get
// one extra element). It exposes the decomposition the chunked
// primitives use internally, for callers that orchestrate their own
// workers but need the same worker-count-independent split — the
// training engine in internal/nn shards minibatches with it.
func ChunkBounds(n, k, c int) (start, end int) {
	return chunkBounds(n, k, c)
}

// ForPoolWorkers is ForPool with stable worker identities: task(w, i)
// runs task i on worker w, where w is in [0, workers) and constant for
// the lifetime of that worker's goroutine. Callers use w to index
// per-worker state (scratch buffers, network replicas) without locking.
// Which worker runs which task is scheduling-dependent, so per-worker
// state must not influence results — only layout.
//
// workers <= 0 selects GOMAXPROCS; workers is clamped to n. Like
// ForPool, a multi-worker invocation suppresses nested fine-grained
// parallelism (see poolDepth); a pool that resolves to one worker runs
// the tasks inline in index order and leaves inner parallelism enabled.
func ForPoolWorkers(n, workers int, task func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = maxWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	poolDepth.Add(1)
	defer poolDepth.Add(-1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// OrderedFold is a streaming chunk-ordered tensor reduction: k workers
// produce equal-length partial buffers in any completion order, and the
// fold combines them into the destination in strict chunk order
// (out = buf_0, then out += buf_1, ...). Because the left-fold chain
// per element is fixed by the chunk indices, the result is bit-identical
// at any worker count — the ScatterReduce guarantee without
// materializing all k buffers when chunks complete nearly in order: a
// delivered buffer that has to wait only for earlier chunks is held,
// and every folded buffer is recycled for later chunks, so steady-state
// memory is O(workers) buffers rather than O(chunks).
//
// Two traffic optimizations shape the contract: chunk 0's "buffer" is
// the destination itself (its partial is produced in place, no copy and
// no fold add), and pooled buffers are handed out with arbitrary
// contents — the producer must fully overwrite its buffer, not
// accumulate into it. out's prior contents never survive Begin's round.
//
// Usage per reduction round: Begin(out, k); each worker obtains chunk
// c's buffer with Buffer(c), overwrites it with the chunk's partial,
// and hands it back with Deliver(c, buf). Every chunk must be delivered
// exactly once; after all k deliveries the fold is complete. Begin may
// be called again to start the next round, reusing the pool.
type OrderedFold struct {
	mu      sync.Mutex
	out     []float64
	next    int
	pending [][]float64 // indexed by chunk, nil until delivered
	free    [][]float64
}

// Begin starts a reduction round of k chunks into out. out is
// overwritten by the round (chunk 0 writes it directly).
func (f *OrderedFold) Begin(out []float64, k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.out = out
	f.next = 0
	if cap(f.pending) < k {
		f.pending = make([][]float64, k)
	}
	f.pending = f.pending[:k]
	for i := range f.pending {
		f.pending[i] = nil
	}
}

// Buffer returns the partial buffer for chunk c: the destination itself
// for chunk 0, a pooled buffer of len(out) otherwise. Contents are
// arbitrary — the caller must fully overwrite the buffer.
func (f *OrderedFold) Buffer(c int) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c == 0 {
		return f.out
	}
	for n := len(f.free); n > 0; n = len(f.free) {
		buf := f.free[n-1]
		f.free = f.free[:n-1]
		if len(buf) == len(f.out) {
			return buf
		}
	}
	return make([]float64, len(f.out))
}

// Deliver hands chunk c's completed buffer to the fold. If all chunks
// before c have been folded, buf (and any directly following pending
// buffers) is folded immediately and recycled; otherwise it is parked
// until its turn. Chunk 0 needs no add — its partial is already in
// out — it only unblocks the chain.
func (f *OrderedFold) Deliver(c int, buf []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending[c] = buf
	for f.next < len(f.pending) && f.pending[f.next] != nil {
		b := f.pending[f.next]
		f.pending[f.next] = nil
		if f.next > 0 {
			for i, v := range b {
				f.out[i] += v
			}
			f.free = append(f.free, b)
		}
		f.next++
	}
}
