package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// Folded reports how many chunks have been folded into out so far.
func (f *OrderedFold) Folded() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

func TestChunkBoundsCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{10, 3}, {64, 8}, {7, 7}, {100, 1}} {
		prev := 0
		for c := 0; c < tc.k; c++ {
			s, e := ChunkBounds(tc.n, tc.k, c)
			if s != prev {
				t.Fatalf("n=%d k=%d chunk %d starts at %d, want %d", tc.n, tc.k, c, s, prev)
			}
			if e < s {
				t.Fatalf("n=%d k=%d chunk %d inverted [%d,%d)", tc.n, tc.k, c, s, e)
			}
			prev = e
		}
		if prev != tc.n {
			t.Fatalf("n=%d k=%d chunks end at %d", tc.n, tc.k, prev)
		}
	}
}

func TestForPoolWorkersRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		const n = 100
		var counts [n]atomic.Int32
		ForPoolWorkers(n, workers, func(w, i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForPoolWorkersWorkerIDsInRange(t *testing.T) {
	const n, workers = 64, 4
	var bad atomic.Int32
	ForPoolWorkers(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw out-of-range worker ids", bad.Load())
	}
}

// The ordered fold must produce the exact left-fold chain regardless of
// delivery order; compare against the serial in-order fold.
func TestOrderedFoldMatchesSerialChain(t *testing.T) {
	const k, width = 9, 37
	r := rand.New(rand.NewSource(1))
	parts := make([][]float64, k)
	for c := range parts {
		parts[c] = make([]float64, width)
		for i := range parts[c] {
			parts[c][i] = r.NormFloat64()
		}
	}
	want := make([]float64, width)
	for c := 0; c < k; c++ {
		for i, v := range parts[c] {
			want[i] += v
		}
	}
	for _, order := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1, 0},
		{4, 0, 8, 2, 6, 1, 5, 3, 7},
	} {
		var f OrderedFold
		out := make([]float64, width)
		out[0] = 99 // prior contents must not survive the round
		f.Begin(out, k)
		for _, c := range order {
			buf := f.Buffer(c)
			copy(buf, parts[c])
			f.Deliver(c, buf)
		}
		if f.Folded() != k {
			t.Fatalf("order %v: folded %d of %d", order, f.Folded(), k)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("order %v: element %d = %v, want %v", order, i, out[i], want[i])
			}
		}
	}
}

func TestOrderedFoldChunkZeroInPlace(t *testing.T) {
	var f OrderedFold
	out := make([]float64, 4)
	f.Begin(out, 1)
	buf := f.Buffer(0)
	if &buf[0] != &out[0] {
		t.Fatal("chunk 0's Buffer should return the destination")
	}
	buf[2] = 5
	f.Deliver(0, buf)
	if out[2] != 5 || f.Folded() != 1 {
		t.Fatalf("in-place fold broken: %v folded=%d", out, f.Folded())
	}
}

func TestOrderedFoldReusesBuffersAcrossRounds(t *testing.T) {
	var f OrderedFold
	for round := 0; round < 3; round++ {
		out := make([]float64, 8)
		f.Begin(out, 3)
		for c := 0; c < 3; c++ {
			buf := f.Buffer(c)
			// Buffers arrive with arbitrary contents; producers must
			// overwrite, not accumulate.
			for i := range buf {
				buf[i] = float64(c + 1)
			}
			f.Deliver(c, buf)
		}
		for i := range out {
			if out[i] != 6 {
				t.Fatalf("round %d: out[%d] = %v, want 6", round, i, out[i])
			}
		}
	}
}
