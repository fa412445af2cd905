package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestIntnRangeProperty(t *testing.T) {
	r := New(11)
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq, sumCube float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
		sumCube += v * v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("third moment = %v, want ~0", skew)
	}
}

func TestShuffleDistribution(t *testing.T) {
	// Every element should land in every slot roughly uniformly.
	r := New(17)
	const n, trials = 4, 40000
	counts := [n][n]int{}
	for trial := 0; trial < trials; trial++ {
		xs := [n]int{0, 1, 2, 3}
		r.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		for slot, v := range xs {
			counts[v][slot]++
		}
	}
	want := float64(trials) / n
	for v := 0; v < n; v++ {
		for slot := 0; slot < n; slot++ {
			if math.Abs(float64(counts[v][slot])-want) > 6*math.Sqrt(want) {
				t.Fatalf("value %d in slot %d: count %d, want ~%.0f", v, slot, counts[v][slot], want)
			}
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestSnapshotRestore_ContinuesStreamBitIdentically freezes a source
// mid-stream (with a Box-Muller spare pending) and checks the restored
// source continues the exact sequence, while the original keeps its own.
func TestSnapshotRestore_ContinuesStreamBitIdentically(t *testing.T) {
	r := New(42)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	r.NormFloat64() // leave a spare cached so the snapshot carries it
	st := r.Snapshot()
	want := make([]float64, 50)
	for i := range want {
		want[i] = r.NormFloat64()
	}
	got, err := FromState(st)
	if err != nil {
		t.Fatalf("FromState: %v", err)
	}
	for i := range want {
		if v := got.NormFloat64(); v != want[i] {
			t.Fatalf("restored stream diverges at %d: %v != %v", i, v, want[i])
		}
	}
	// The snapshot value is independent of the original's later use.
	r2, err := FromState(st)
	if err != nil {
		t.Fatalf("FromState: %v", err)
	}
	if v := r2.NormFloat64(); v != want[0] {
		t.Fatalf("snapshot not a value copy: %v != %v", v, want[0])
	}
}

// TestSnapshotRestore_ShuffleCursor checks the training-checkpoint use
// case: a shuffle sequence interrupted and resumed from a snapshot
// produces the same permutations as an uninterrupted one.
func TestSnapshotRestore_ShuffleCursor(t *testing.T) {
	const n, epochs, cut = 37, 8, 3
	full := New(7)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var wantFinal []int
	for e := 0; e < epochs; e++ {
		full.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	wantFinal = append(wantFinal, perm...)

	part := New(7)
	for i := range perm {
		perm[i] = i
	}
	for e := 0; e < cut; e++ {
		part.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	resumed, err := FromState(part.Snapshot())
	if err != nil {
		t.Fatalf("FromState: %v", err)
	}
	for e := cut; e < epochs; e++ {
		resumed.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	for i := range perm {
		if perm[i] != wantFinal[i] {
			t.Fatalf("resumed shuffle diverges at %d", i)
		}
	}
}

// TestFromState_RejectsAllZero guards the corrupt-snapshot path.
func TestFromState_RejectsAllZero(t *testing.T) {
	if _, err := FromState(State{}); err == nil {
		t.Fatal("FromState accepted the all-zero state")
	}
}
