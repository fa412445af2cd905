package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// primitives runs each fine-grained primitive on an input whose result
// depends on the order floating-point partials are combined in (or, for
// For and ScatterCount, on every element being visited exactly once) and
// returns the outputs by name.
func primitives(n int) map[string][]float64 {
	const width = 17
	term := func(i int) float64 { return math.Sin(float64(i) * 0.7) }
	res := map[string][]float64{}

	forOut := make([]float64, n)
	For(n, func(start, end int) {
		for i := start; i < end; i++ {
			forOut[i] += term(i)
		}
	})
	res["For"] = forOut

	res["ScatterReduce"] = scatterFixture(n, width)

	count := make([]float64, width)
	ScatterCount(n, count, func(acc []float64, start, end int) {
		for i := start; i < end; i++ {
			acc[(i*i+3*i)%width]++
		}
	})
	res["ScatterCount"] = count

	sums := make([]float64, 2)
	ReduceSums(n, sums, func(partial []float64, start, end int) {
		for i := start; i < end; i++ {
			partial[0] += term(i)
			partial[1] += term(i) * term(i)
		}
	})
	res["ReduceSums"] = sums
	return res
}

// The team grows and shrinks how many helpers take part as GOMAXPROCS
// moves within one process; the decomposition, and so every bit of every
// result, stays where the serial run put it. The two sizes sit below and
// above chunkGrain*chunkMax, where the chunk count stops growing.
func TestPrimitivesBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, n := range []int{30000, 100000} {
		var ref map[string][]float64
		withGOMAXPROCS(t, 1, func() { ref = primitives(n) })
		for _, procs := range []int{2, 4, 8, 3, 2, 1, 4} {
			withGOMAXPROCS(t, procs, func() {
				for rep := 0; rep < 2; rep++ {
					for name, got := range primitives(n) {
						for i, want := range ref[name] {
							if math.Float64bits(got[i]) != math.Float64bits(want) {
								t.Fatalf("n=%d GOMAXPROCS=%d rep=%d: %s[%d] = %v != serial %v", n, procs, rep, name, i, got[i], want)
							}
						}
					}
				}
			})
		}
	}
}

// Callers that find the team busy run inline, which must give the same
// bits: eight goroutines hammer ScatterReduce and every result equals
// the serial one.
func TestConcurrentCallersGetSerialAnswer(t *testing.T) {
	const n, width = 20000, 9
	var ref []float64
	withGOMAXPROCS(t, 1, func() { ref = scatterFixture(n, width) })
	soak := 2 * time.Second
	if testing.Short() {
		soak = 200 * time.Millisecond
	}
	withGOMAXPROCS(t, 4, func() {
		before := TeamStats()
		deadline := time.Now().Add(soak)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					got := scatterFixture(n, width)
					for i := range got {
						if got[i] != ref[i] {
							t.Errorf("out[%d] = %v != serial %v", i, got[i], ref[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		after := TeamStats()
		if after.Inline == before.Inline {
			t.Errorf("no inline fallback among 8 concurrent callers: %+v -> %+v", before, after)
		}
		if after.Dispatches == before.Dispatches {
			t.Errorf("no dispatch reached the team: %+v -> %+v", before, after)
		}
	})
}

func TestNestedLoopRunsInline(t *testing.T) {
	withGOMAXPROCS(t, 4, func() {
		const outer, inner = 8192, 4096
		var visited atomic.Int64
		before := TeamStats()
		For(outer, func(start, end int) {
			// The team is busy with the outer loop, whoever runs this piece.
			calls := 0
			For(inner, func(s, e int) {
				calls++
				if s != 0 || e != inner {
					t.Errorf("nested For got [%d,%d), want the whole range inline", s, e)
				}
			})
			if calls != 1 {
				t.Errorf("nested For made %d body calls, want 1", calls)
			}
			visited.Add(int64(end - start))
		})
		if visited.Load() != outer {
			t.Fatalf("outer loop covered %d of %d", visited.Load(), outer)
		}
		if d := TeamStats().Dispatches - before.Dispatches; d != 1 {
			t.Fatalf("%d dispatches, want 1 (the outer loop only)", d)
		}
	})
}

// helpersParked reports how many helpers exist and how many are parked.
// It takes the team, so it waits out a job in flight.
func helpersParked() (helpers, parked int) {
	for !crew.mu.TryLock() {
		runtime.Gosched()
	}
	defer crew.mu.Unlock()
	for _, h := range crew.helpers {
		if h.parked.Load() {
			parked++
		}
	}
	return len(crew.helpers), parked
}

func TestTeamIsBoundedAndParksWhenIdle(t *testing.T) {
	const procs = 4
	withGOMAXPROCS(t, procs, func() {
		goroutines := runtime.NumGoroutine()
		out := make([]float64, procs)
		body := func(start, end int) {
			for i := start; i < end; i++ {
				out[i]++
			}
		}
		for d := 0; d < 10000; d++ {
			ForThreshold(len(out), 1, body)
		}
		for i, v := range out {
			if v != 10000 {
				t.Fatalf("out[%d] = %v after 10000 loops", i, v)
			}
		}
		if grown := runtime.NumGoroutine() - goroutines; grown > procs-1 {
			t.Fatalf("10000 dispatches grew the process by %d goroutines, want at most %d", grown, procs-1)
		}
		// The spin budget is an iteration count, so how long parking takes
		// depends on the machine: wait for the event, with a generous cap.
		deadline := time.Now().Add(30 * time.Second)
		for {
			helpers, parked := helpersParked()
			if helpers == 0 {
				t.Fatal("no helper was started")
			}
			if parked == helpers {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d helpers parked after an idle pause", parked, helpers)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// A caller waits only for indices a helper has claimed, so helpers that
// never get a processor cost it speed, not progress.
func TestCallerCompletesWhenHelpersAreStarved(t *testing.T) {
	withGOMAXPROCS(t, 2, func() {
		var stop atomic.Bool
		hogging := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(hogging)
			for !stop.Load() {
			}
		}()
		<-hogging
		defer func() {
			stop.Store(true)
			wg.Wait()
		}()
		const n, width = 50000, 11
		want := make([]float64, width)
		for i := 0; i < n; i++ {
			want[i%width]++
		}
		for rep := 0; rep < 200; rep++ {
			got := make([]float64, width)
			ScatterCount(n, got, func(acc []float64, start, end int) {
				for i := start; i < end; i++ {
					acc[i%width]++
				}
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rep %d: out[%d] = %v, want %v", rep, i, got[i], want[i])
				}
			}
		}
	})
}

// claimOrder runs a job of count indices on the team at two workers and
// returns the indices the caller and the helper ran, each in the order
// it ran them. It is a count job with one index per chunk, so the
// accumulator a body gets names its worker. The caller's first index
// waits for the helper to take one, so the helper is sure to take part.
func claimOrder(count int) (caller, helper []int) {
	out, buf := []float64{0}, []float64{0}
	var helperRan atomic.Bool
	body := func(acc []float64, start, _ int) {
		if &acc[0] != &out[0] {
			helper = append(helper, start)
			helperRan.Store(true)
			return
		}
		caller = append(caller, start)
		for deadline := time.Now().Add(10 * time.Second); len(caller) == 1 && !helperRan.Load() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	crew.mu.Lock()
	crew.run(job{kind: countJob, n: count, k: count, accBody: body, out: out, buf: buf}, count, 2)
	return caller, helper
}

// The caller takes a job's indices from the front and the helper from
// the back, so across the stages of a PIC step each core keeps running
// the same particles. Checked for a full chunk count and for the two
// pieces For cuts at two workers.
func TestClaimOrderCallerFrontHelperBack(t *testing.T) {
	withGOMAXPROCS(t, 2, func() {
		for _, count := range []int{chunkMax, 2} {
			joins := TeamStats().Joins
			caller, helper := claimOrder(count)
			ran := make([]int, count)
			for _, i := range append(append([]int(nil), caller...), helper...) {
				ran[i]++
			}
			for i, r := range ran {
				if r != 1 {
					t.Fatalf("count %d: index %d ran %d times (caller %v, helper %v)", count, i, r, caller, helper)
				}
			}
			for want, i := range caller {
				if i != want {
					t.Fatalf("count %d: caller ran %v, want 0 up to %d", count, caller, len(caller)-1)
				}
			}
			if len(helper) == 0 {
				t.Fatalf("count %d: the helper ran nothing", count)
			}
			for j, i := range helper {
				if i != count-1-j {
					t.Fatalf("count %d: helper ran %v, want %d down to %d", count, helper, count-1, len(caller))
				}
			}
			// A helper's join is counted once it leaves the job, which may
			// be just after run returns.
			for deadline := time.Now().Add(10 * time.Second); TeamStats().Joins == joins; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("count %d: TeamStats().Joins did not rise", count)
				}
			}
		}
	})
}

// The largest job the primitives can publish fits the state word, and
// claims from both ends stay inside their fields there.
func TestStateWordAtTheBound(t *testing.T) {
	for _, procs := range []int{maxHelpers + 1, maxHelpers + 2, 1 << 30} {
		if got := teamSize(procs); got != maxHelpers+1 {
			t.Fatalf("teamSize(%d) = %d, want %d", procs, got, maxHelpers+1)
		}
	}
	if maxHelpers+1 > indexMask || chunkMax > indexMask {
		t.Fatalf("a job of %d range pieces or %d chunks overflows a %d-bit index", maxHelpers+1, chunkMax, indexBits)
	}
	var tm team
	tm.state.Store(stateWord(0, indexMask, maxHelpers))
	if i, ok := tm.claim(-1); !ok || i != 0 {
		t.Fatalf("caller claimed %d, %v; want 0", i, ok)
	}
	if i, ok := tm.claim(maxHelpers - 1); !ok || i != indexMask-1 {
		t.Fatalf("last helper claimed %d, %v; want %d", i, ok, indexMask-1)
	}
	if _, ok := tm.claim(maxHelpers); ok {
		t.Fatal("a helper beyond the admitted count claimed an index")
	}
	if lo, hi, helpers := window(tm.state.Load()); lo != 1 || hi != indexMask-1 || helpers != maxHelpers {
		t.Fatalf("window after two claims = [%d, %d) with %d helpers, want [1, %d) with %d", lo, hi, helpers, indexMask-1, maxHelpers)
	}
	// The last index goes to one side only.
	tm.state.Store(stateWord(indexMask-1, indexMask, maxHelpers))
	if i, ok := tm.claim(0); !ok || i != indexMask-1 {
		t.Fatalf("helper claimed %d, %v; want %d", i, ok, indexMask-1)
	}
	if _, ok := tm.claim(-1); ok {
		t.Fatal("the caller claimed from an empty window")
	}
}

// mallocsPerRun is testing.AllocsPerRun without its runtime.GOMAXPROCS(1),
// under which every loop is inline and the team is never measured: one
// warm-up call, then the process's malloc count across runs calls,
// averaged and truncated as AllocsPerRun does.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// Steady-state dispatch allocates nothing: the job record is the team's
// own and the bodies are the caller's. (Bodies are hoisted out of the
// measured function; a caller's closure is its own allocation.)
func TestDispatchDoesNotAllocate(t *testing.T) {
	const n, width = 8 * chunkGrain, 32
	x := make([]float64, n)
	out := make([]float64, width)
	rangeBody := func(start, end int) {
		for i := start; i < end; i++ {
			x[i]++
		}
	}
	accBody := func(acc []float64, start, end int) {
		for i := start; i < end; i++ {
			acc[i%width]++
		}
	}
	withGOMAXPROCS(t, 2, func() {
		for name, loop := range map[string]func(){
			"For":           func() { For(n, rangeBody) },
			"ScatterReduce": func() { ScatterReduce(n, out, accBody) },
			"ScatterCount":  func() { ScatterCount(n, out, accBody) },
		} {
			before := TeamStats().Dispatches
			if allocs := mallocsPerRun(100, loop); allocs != 0 {
				t.Errorf("%s: %v allocations per call, want 0", name, allocs)
			}
			if TeamStats().Dispatches == before {
				t.Errorf("%s never reached the team; the measurement covered the inline path only", name)
			}
		}
	})
}
