package dataset

import (
	"bytes"
	"math"
	"testing"

	"dlpic/internal/interp"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
)

// tinyOpts is a fast sweep for tests: 2 combos x 1 repeat x 10 steps.
func tinyOpts() GenerateOpts {
	base := pic.Default()
	base.Cells = 16
	base.ParticlesPerCell = 20
	base.DiagMode = 1
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: base.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	return GenerateOpts{
		Base: base,
		V0s:  []float64{0.2}, Vths: []float64{0.0, 0.01},
		Repeats: 1, Steps: 10, SampleEvery: 1,
		Spec: spec, Seed: 42,
	}
}

func TestPaperSweep(t *testing.T) {
	base := pic.Default()
	paper := PaperSweep(base, phasespace.DefaultSpec(base.Length), 1)
	if err := paper.Validate(); err != nil {
		t.Fatalf("paper sweep invalid: %v", err)
	}
	if len(paper.V0s)*len(paper.Vths) != 20 || paper.Repeats != 10 || paper.Steps != 200 || paper.SampleEvery != 1 {
		t.Fatalf("paper sweep is not the 20x10x200 corpus: %+v", paper)
	}
}

func TestGenerateOptsValidate(t *testing.T) {
	good := tinyOpts()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid opts rejected: %v", err)
	}
	cases := []func(*GenerateOpts){
		func(o *GenerateOpts) { o.V0s = nil },
		func(o *GenerateOpts) { o.Vths = nil },
		func(o *GenerateOpts) { o.Repeats = 0 },
		func(o *GenerateOpts) { o.Steps = 0 },
		func(o *GenerateOpts) { o.SampleEvery = 0 },
		func(o *GenerateOpts) { o.Spec.NX = 0 },
		func(o *GenerateOpts) { o.Spec.L = 999 },
	}
	for i, mutate := range cases {
		o := tinyOpts()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGenerateShapesAndContent(t *testing.T) {
	o := tinyOpts()
	var progressCalls int
	o.Progress = func(done, total int) {
		progressCalls++
		if total != 2 {
			t.Errorf("total runs %d, want 2", total)
		}
	}
	ds, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 2 * 10 // combos x steps
	if ds.N() != wantN {
		t.Fatalf("N = %d, want %d", ds.N(), wantN)
	}
	if progressCalls != 2 {
		t.Fatalf("progress calls %d, want 2", progressCalls)
	}
	if ds.Inputs.Cols() != o.Spec.Size() || ds.Targets.Cols() != o.Base.Cells {
		t.Fatalf("column widths %d/%d", ds.Inputs.Cols(), ds.Targets.Cols())
	}
	// Inputs are histograms: every row sums to the particle count.
	np := float64(o.Base.NumParticles())
	for i := 0; i < ds.N(); i++ {
		var sum float64
		for _, v := range ds.Inputs.Row(i) {
			sum += v
		}
		if math.Abs(sum-np) > 1e-9 {
			t.Fatalf("row %d histogram sums to %v, want %v", i, sum, np)
		}
	}
	// Targets are fields: finite, not identically zero across the corpus.
	var maxAbs float64
	for _, v := range ds.Targets.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite target")
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		t.Fatal("all-zero targets")
	}
}

func TestGenerateSubsampling(t *testing.T) {
	o := tinyOpts()
	o.SampleEvery = 3 // 10 steps -> 3 samples per run
	ds, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2*3 {
		t.Fatalf("N = %d, want 6", ds.N())
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Inputs.Data {
		if a.Inputs.Data[i] != b.Inputs.Data[i] {
			t.Fatal("non-deterministic inputs")
		}
	}
	for i := range a.Targets.Data {
		if a.Targets.Data[i] != b.Targets.Data[i] {
			t.Fatal("non-deterministic targets")
		}
	}
}

func TestNormalize(t *testing.T) {
	ds, err := Generate(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !ds.Normalized {
		t.Fatal("Normalized flag not set")
	}
	for _, v := range ds.Inputs.Data {
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("normalized value %v outside [0,1]", v)
		}
	}
	if err := ds.Normalize(); err == nil {
		t.Fatal("double normalize should fail")
	}
}

func TestNormalizeWith(t *testing.T) {
	ds, err := Generate(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	norm := phasespace.Normalizer{Min: 0, Max: 100}
	if err := ds.NormalizeWith(norm); err != nil {
		t.Fatal(err)
	}
	if ds.Norm != norm {
		t.Fatal("normalizer not recorded")
	}
}

func TestShuffleAndSplit(t *testing.T) {
	ds, err := Generate(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Tag each row uniquely (bin 0 is usually empty, so use it as a
	// marker slot), then verify the permutation moved rows and kept
	// input/target rows paired.
	for i := 0; i < ds.N(); i++ {
		ds.Inputs.Row(i)[0] = float64(i + 1)
		ds.Targets.Row(i)[0] = float64(i + 1)
	}
	ds.Shuffle(7)
	same := 0
	seen := make(map[float64]bool)
	for i := 0; i < ds.N(); i++ {
		tag := ds.Inputs.Row(i)[0]
		if tag == float64(i+1) {
			same++
		}
		if seen[tag] {
			t.Fatalf("row %d duplicated by shuffle", i)
		}
		seen[tag] = true
		if ds.Targets.Row(i)[0] != tag {
			t.Fatalf("row %d: input/target pairing broken by shuffle", i)
		}
	}
	if same == ds.N() {
		t.Fatal("shuffle did nothing")
	}
	train, val, test, err := ds.Split(10, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if train.N() != 10 || val.N() != 5 || test.N() != 5 {
		t.Fatalf("split sizes %d/%d/%d", train.N(), val.N(), test.N())
	}
	// Views share the parent's storage.
	train.Inputs.Data[0] = -123
	if ds.Inputs.Data[0] != -123 {
		t.Fatal("split views should share storage")
	}
	if _, _, _, err := ds.Split(100, 0, 0); err == nil {
		t.Fatal("oversized split should fail")
	}
	if _, _, _, err := ds.Split(0, 1, 1); err == nil {
		t.Fatal("zero train split should fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := Generate(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Normalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != ds.N() || loaded.Cells != ds.Cells || !loaded.Normalized {
		t.Fatalf("metadata lost: n=%d cells=%d norm=%v", loaded.N(), loaded.Cells, loaded.Normalized)
	}
	if loaded.Norm != ds.Norm {
		t.Fatal("normalizer lost")
	}
	// float32 roundtrip: values match to single precision.
	for i := range ds.Inputs.Data {
		if math.Abs(loaded.Inputs.Data[i]-ds.Inputs.Data[i]) > 1e-6 {
			t.Fatalf("input %d drifted: %v vs %v", i, loaded.Inputs.Data[i], ds.Inputs.Data[i])
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds, err := Generate(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/corpus.gob"
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != ds.N() {
		t.Fatalf("N = %d, want %d", loaded.N(), ds.N())
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage should fail")
	}
}

// The concurrent sweep must produce a corpus byte-identical to the
// serial one: seeds are pre-derived in run order and every run writes a
// disjoint row block.
func TestGenerateIdenticalAcrossWorkerCounts(t *testing.T) {
	o := tinyOpts()
	o.V0s = []float64{0.15, 0.2}
	o.Vths = []float64{0.0, 0.01}
	o.Repeats = 2
	o.Workers = 1
	ref, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3, 8} {
		o.Workers = workers
		ds, err := Generate(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ds.N() != ref.N() {
			t.Fatalf("workers=%d: %d samples, want %d", workers, ds.N(), ref.N())
		}
		for i, v := range ds.Inputs.Data {
			if v != ref.Inputs.Data[i] {
				t.Fatalf("workers=%d: input %d = %v != serial %v", workers, i, v, ref.Inputs.Data[i])
			}
		}
		for i, v := range ds.Targets.Data {
			if v != ref.Targets.Data[i] {
				t.Fatalf("workers=%d: target %d = %v != serial %v", workers, i, v, ref.Targets.Data[i])
			}
		}
	}
}

// Per-run failures inside the pool must surface as an error, not a
// partial corpus.
func TestGeneratePropagatesRunErrors(t *testing.T) {
	o := tinyOpts()
	o.Base.Solver = "spectral"
	o.Base.Dt = 0.2
	o.V0s = []float64{0.2}
	// An invalid per-run config slips past Validate (which only checks
	// sweep shape): force a failure by making the box/spec agree but the
	// PIC config invalid at run time.
	o.Base.QOverM = 0
	if _, err := Generate(o); err == nil {
		t.Fatal("expected per-run config error to propagate")
	}
}
