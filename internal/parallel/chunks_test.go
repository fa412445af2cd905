package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

// withGOMAXPROCS runs f under a temporary GOMAXPROCS setting.
func withGOMAXPROCS(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestNumChunksBounds(t *testing.T) {
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {chunkGrain, 1}, {chunkGrain + 1, 2},
		{chunkGrain * chunkMax, chunkMax}, {chunkGrain*chunkMax + 1, chunkMax},
		{1 << 30, chunkMax},
	}
	for _, c := range cases {
		if got := NumChunks(c.n); got != c.want {
			t.Errorf("NumChunks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestChunkBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000, 65537} {
		k := NumChunks(n)
		next := 0
		for c := 0; c < k; c++ {
			s, e := chunkBounds(n, k, c)
			if s != next {
				t.Fatalf("n=%d chunk %d starts at %d, want %d", n, c, s, next)
			}
			if e <= s {
				t.Fatalf("n=%d chunk %d empty [%d,%d)", n, c, s, e)
			}
			next = e
		}
		if next != n {
			t.Fatalf("n=%d chunks cover [0,%d), want [0,%d)", n, next, n)
		}
	}
}

// scatterFixture deposits pseudo-random contributions into a small
// accumulator; FP addition order matters, so it detects any change in
// the partial-sum structure.
func scatterFixture(n, width int) []float64 {
	out := make([]float64, width)
	ScatterReduce(n, out, func(acc []float64, start, end int) {
		for i := start; i < end; i++ {
			x := math.Sin(float64(i) * 0.7)
			acc[i%width] += x
			acc[(i*7+1)%width] += 0.3 * x * x
		}
	})
	return out
}

func TestScatterReduceBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	const n, width = 100000, 17
	var ref []float64
	withGOMAXPROCS(t, 1, func() { ref = scatterFixture(n, width) })
	for _, procs := range []int{2, 3, 4, 8} {
		withGOMAXPROCS(t, procs, func() {
			for rep := 0; rep < 3; rep++ {
				got := scatterFixture(n, width)
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("GOMAXPROCS=%d rep=%d: out[%d] = %v != serial %v",
							procs, rep, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

func TestScatterReduceSingleChunkMatchesNaive(t *testing.T) {
	// Below the grain there is exactly one chunk: the result must be
	// bitwise equal to the plain serial loop.
	n, width := chunkGrain-1, 5
	want := make([]float64, width)
	for i := 0; i < n; i++ {
		want[i%width] += math.Cos(float64(i))
	}
	got := make([]float64, width)
	ScatterReduce(n, got, func(acc []float64, start, end int) {
		for i := start; i < end; i++ {
			acc[i%width] += math.Cos(float64(i))
		}
	})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScatterReduceCloseToNaiveSerial(t *testing.T) {
	// Across chunks the parenthesization differs from the naive serial
	// fold, so equality is only up to FP reassociation error.
	const n, width = 50000, 8
	want := make([]float64, width)
	for i := 0; i < n; i++ {
		want[i%width] += math.Sin(float64(i) * 0.3)
	}
	got := make([]float64, width)
	ScatterReduce(n, got, func(acc []float64, start, end int) {
		for i := start; i < end; i++ {
			acc[i%width] += math.Sin(float64(i) * 0.3)
		}
	})
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("out[%d] = %v, naive %v", i, got[i], want[i])
		}
	}
}

func TestScatterReduceOverwritesOut(t *testing.T) {
	out := []float64{42, -7}
	ScatterReduce(10, out, func(acc []float64, start, end int) {
		for i := start; i < end; i++ {
			acc[0]++
		}
	})
	if out[0] != 10 || out[1] != 0 {
		t.Fatalf("out = %v, want [10 0]", out)
	}
	ScatterReduce(0, out, func(acc []float64, start, end int) { t.Fatal("body ran for n=0") })
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("out = %v after n=0, want zeros", out)
	}
}

func TestReduceSumsDeterministic(t *testing.T) {
	const n = 80000
	run := func() [2]float64 {
		var sums [2]float64
		ReduceSums(n, sums[:], func(partial []float64, start, end int) {
			for i := start; i < end; i++ {
				partial[0] += math.Sin(float64(i))
				partial[1] += math.Cos(float64(i))
			}
		})
		return sums
	}
	var ref [2]float64
	withGOMAXPROCS(t, 1, func() { ref = run() })
	withGOMAXPROCS(t, 8, func() {
		if got := run(); got != ref {
			t.Fatalf("GOMAXPROCS=8 sums %v != serial %v", got, ref)
		}
	})
}

func TestForPoolCoversAll(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		for _, n := range []int{0, 1, 7, 100} {
			seen := make([]int32, n)
			ForPool(n, workers, func(i int) {
				atomic.AddInt32(&seen[i], 1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d run %d times", workers, n, i, c)
				}
			}
		}
	}
}

// countFixture histograms i -> (i*i + 3*i) % width with ScatterCount and
// returns the result next to a naive serial count.
func countFixture(n, width int) (got, want []float64) {
	slot := func(i int) int { return (i*i + 3*i) % width }
	got = make([]float64, width)
	for i := range got {
		got[i] = -99 // must be overwritten, not accumulated into
	}
	ScatterCount(n, got, func(acc []float64, start, end int) {
		for i := start; i < end; i++ {
			acc[slot(i)]++
		}
	})
	want = make([]float64, width)
	for i := 0; i < n; i++ {
		want[slot(i)]++
	}
	return got, want
}

func TestScatterCountEqualsNaiveCount(t *testing.T) {
	check := func(label string, n, width int) {
		t.Helper()
		got, want := countFixture(n, width)
		for i := range want {
			if got[i] != want[i] {
				// Errorf: the ForPool cases run off the test goroutine.
				t.Errorf("%s n=%d width=%d: out[%d] = %v, naive %v", label, n, width, i, got[i], want[i])
				return
			}
		}
	}
	sizes := []int{0, 1, chunkGrain - 1, chunkGrain + 1, 3*chunkGrain + 5, 200000}
	for _, procs := range []int{1, 2, 3, 8} {
		withGOMAXPROCS(t, procs, func() {
			for _, n := range sizes {
				check("GOMAXPROCS", n, 257)
			}
			// Inside a running pool the scatter is inline, straight into out.
			ForPool(4, 2, func(int) {
				for _, n := range sizes {
					check("ForPool", n, 61)
				}
			})
		})
	}
}

func TestScatterCountZeroWidth(t *testing.T) {
	withGOMAXPROCS(t, 4, func() {
		var visited atomic.Int64
		ScatterCount(5*chunkGrain, nil, func(acc []float64, start, end int) {
			if len(acc) != 0 {
				t.Errorf("acc length %d for width 0", len(acc))
			}
			visited.Add(int64(end - start))
		})
		if visited.Load() != 5*chunkGrain {
			t.Fatalf("body covered %d elements, want %d", visited.Load(), 5*chunkGrain)
		}
	})
}

func TestScatterCountOverwritesOut(t *testing.T) {
	out := []float64{42, -7}
	ScatterCount(0, out, func(acc []float64, start, end int) { t.Fatal("body ran for n=0") })
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("out = %v after n=0, want zeros", out)
	}
}
