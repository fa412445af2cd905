// Package dataset reproduces the training-corpus pipeline of the paper's
// §IV-1 (Fig. 3): traditional PIC simulations are run over a sweep of
// beam velocities v0 and thermal speeds vth (with several repeats per
// combination as data augmentation), and at every time step the electron
// phase-space histogram and the grid electric field are captured as one
// (input, target) sample.
//
// The paper's full corpus is 20 combinations x 10 experiments x 200
// steps = 40,000 samples; Generate produces any scaled version of that
// sweep deterministically from a root seed.
package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"dlpic/internal/parallel"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// Dataset holds the (phase-space histogram, electric field) pairs.
// Inputs are raw bin counts until Normalize is called.
type Dataset struct {
	// Spec is the phase-space discretization of the inputs.
	Spec phasespace.GridSpec
	// Cells is the field grid size of the targets.
	Cells int
	// Inputs is [n, Spec.Size()]; Targets is [n, Cells].
	Inputs, Targets *tensor.Tensor
	// Norm is the min-max input normalizer (zero value until Normalize
	// or when loaded from a normalized file).
	Norm phasespace.Normalizer
	// Normalized records whether Inputs currently hold normalized values.
	Normalized bool
}

// N returns the sample count.
func (d *Dataset) N() int {
	if d.Inputs == nil {
		return 0
	}
	return d.Inputs.Rows()
}

// GenerateOpts configures the sweep.
type GenerateOpts struct {
	// Base is the PIC configuration template; V0/Vth/Seed are overridden
	// per run.
	Base pic.Config
	// V0s and Vths are the sweep axes (paper: 5 x 4 = 20 combinations).
	V0s, Vths []float64
	// Repeats is the number of experiments per combination (paper: 10).
	Repeats int
	// Steps is the number of PIC steps per experiment (paper: 200).
	Steps int
	// SampleEvery subsamples the trajectory (1 = every step, the paper's
	// setting).
	SampleEvery int
	// Spec is the phase-space binning of the inputs.
	Spec phasespace.GridSpec
	// Seed derives every run's seed.
	Seed uint64
	// Workers bounds the sweep pool (<= 0 selects GOMAXPROCS). Runs are
	// independent simulations writing disjoint sample rows, and every
	// run's seed is pre-derived in run order, so the corpus is identical
	// for any worker count.
	Workers int
	// Progress, if non-nil, is called after each completed run. Calls
	// are serialized.
	Progress func(done, total int)
}

// PaperSweep returns the paper's §IV-1 corpus sweep over base: v0 in
// {0.05, 0.1, 0.15, 0.18, 0.3} x vth in {0, 0.001, 0.005, 0.01}, 10
// repeats of 200 steps each, every step sampled (40,000 samples).
func PaperSweep(base pic.Config, spec phasespace.GridSpec, seed uint64) GenerateOpts {
	return GenerateOpts{
		Base:    base,
		V0s:     []float64{0.05, 0.1, 0.15, 0.18, 0.3},
		Vths:    []float64{0.0, 0.001, 0.005, 0.01},
		Repeats: 10, Steps: 200, SampleEvery: 1,
		Spec: spec, Seed: seed,
	}
}

// Validate checks the sweep options.
func (o GenerateOpts) Validate() error {
	if len(o.V0s) == 0 || len(o.Vths) == 0 {
		return fmt.Errorf("dataset: empty sweep axes (v0s=%d, vths=%d)", len(o.V0s), len(o.Vths))
	}
	if o.Repeats < 1 {
		return fmt.Errorf("dataset: Repeats = %d, need >= 1", o.Repeats)
	}
	if o.Steps < 1 {
		return fmt.Errorf("dataset: Steps = %d, need >= 1", o.Steps)
	}
	if o.SampleEvery < 1 {
		return fmt.Errorf("dataset: SampleEvery = %d, need >= 1", o.SampleEvery)
	}
	if err := o.Spec.Validate(); err != nil {
		return err
	}
	if o.Spec.L != o.Base.Length {
		return fmt.Errorf("dataset: phase-space box %v != PIC box %v", o.Spec.L, o.Base.Length)
	}
	return nil
}

// Generate runs the sweep and collects the corpus. The runs execute
// concurrently on a bounded pool (see GenerateOpts.Workers): each run
// owns a full simulation plus histogram and writes a disjoint block of
// sample rows, with its seed pre-derived from the root seed in run
// order, so the corpus is byte-identical for every worker count.
// Within each run the phase-space binning itself spreads over the cores
// when the pool is serial, and its result does not depend on how: NGP
// bins are whole counts, which add exactly in any order
// (parallel.ScatterCount), and CIC binning reduces fixed chunks in chunk
// order (parallel.ScatterReduce) — so corpora stay byte-identical at any
// Workers and GOMAXPROCS.
func Generate(o GenerateOpts) (*Dataset, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	samplesPerRun := o.Steps / o.SampleEvery
	totalRuns := len(o.V0s) * len(o.Vths) * o.Repeats
	n := totalRuns * samplesPerRun
	ds := &Dataset{
		Spec:    o.Spec,
		Cells:   o.Base.Cells,
		Inputs:  tensor.New(n, o.Spec.Size()),
		Targets: tensor.New(n, o.Base.Cells),
	}
	// Build the run list upfront, consuming the seed stream in the same
	// v0-outer, vth, repeat order the serial sweep used.
	type runSpec struct {
		cfg      pic.Config
		v0, vth  float64
		rep, row int
	}
	runs := make([]runSpec, 0, totalRuns)
	seeder := rng.New(o.Seed)
	row := 0
	for _, v0 := range o.V0s {
		for _, vth := range o.Vths {
			for rep := 0; rep < o.Repeats; rep++ {
				cfg := o.Base
				cfg.V0 = v0
				cfg.Vth = vth
				cfg.Seed = seeder.Uint64()
				runs = append(runs, runSpec{cfg: cfg, v0: v0, vth: vth, rep: rep, row: row})
				row += samplesPerRun
			}
		}
	}
	var (
		mu        sync.Mutex
		done      int
		runErr    error
		runErrIdx int
		failed    atomic.Bool
	)
	parallel.ForPool(len(runs), o.Workers, func(i int) {
		r := runs[i]
		// After a failure the corpus is doomed; skip runs that have not
		// started instead of simulating them. Among the failures that do
		// run, the lowest run index wins, so the reported error does not
		// depend on completion order.
		if failed.Load() {
			mu.Lock()
			done++
			if o.Progress != nil {
				o.Progress(done, totalRuns)
			}
			mu.Unlock()
			return
		}
		err := func() error {
			hist, err := phasespace.NewHist(o.Spec)
			if err != nil {
				return err
			}
			sim, err := pic.New(r.cfg, nil)
			if err != nil {
				return fmt.Errorf("dataset: run v0=%v vth=%v rep=%d: %w", r.v0, r.vth, r.rep, err)
			}
			rowAt := r.row
			for step := 0; step < o.Steps; step++ {
				if _, err := sim.Step(); err != nil {
					return fmt.Errorf("dataset: run v0=%v vth=%v rep=%d step=%d: %w", r.v0, r.vth, r.rep, step, err)
				}
				if (step+1)%o.SampleEvery != 0 {
					continue
				}
				if rowAt >= r.row+samplesPerRun {
					break
				}
				// After Step, sim.E is consistent with the current
				// particle positions — exactly the state the DL-PIC
				// loop will present to the solver at inference time.
				if err := hist.Bin(sim.P.X, sim.P.V); err != nil {
					return err
				}
				copy(ds.Inputs.Row(rowAt), hist.Data)
				copy(ds.Targets.Row(rowAt), sim.E)
				rowAt++
			}
			return nil
		}()
		mu.Lock()
		if err != nil {
			failed.Store(true)
			if runErr == nil || i < runErrIdx {
				runErr, runErrIdx = err, i
			}
		}
		done++
		if o.Progress != nil {
			o.Progress(done, totalRuns)
		}
		mu.Unlock()
	})
	if runErr != nil {
		return nil, runErr
	}
	return ds, nil
}

func shrinkRows(t *tensor.Tensor, rows int) *tensor.Tensor {
	return tensor.FromSlice(t.Data[:rows*t.Cols()], rows, t.Cols())
}

// Normalize fits the min-max normalizer on the inputs (paper Eq. 5) and
// applies it in place. Calling it twice is an error.
func (d *Dataset) Normalize() error {
	if d.Normalized {
		return fmt.Errorf("dataset: already normalized")
	}
	norm, err := phasespace.FitNormalizer(d.Inputs.Data)
	if err != nil {
		return err
	}
	norm.Apply(d.Inputs.Data, d.Inputs.Data)
	d.Norm = norm
	d.Normalized = true
	return nil
}

// NormalizeWith applies an externally fitted normalizer (used for test
// sets, which must reuse the training normalization).
func (d *Dataset) NormalizeWith(norm phasespace.Normalizer) error {
	if d.Normalized {
		return fmt.Errorf("dataset: already normalized")
	}
	norm.Apply(d.Inputs.Data, d.Inputs.Data)
	d.Norm = norm
	d.Normalized = true
	return nil
}

// Shuffle permutes samples in place, deterministically from seed.
func (d *Dataset) Shuffle(seed uint64) {
	r := rng.New(seed)
	n := d.N()
	inCols, tgCols := d.Inputs.Cols(), d.Targets.Cols()
	tmpIn := make([]float64, inCols)
	tmpTg := make([]float64, tgCols)
	r.Shuffle(n, func(i, j int) {
		copy(tmpIn, d.Inputs.Row(i))
		copy(d.Inputs.Row(i), d.Inputs.Row(j))
		copy(d.Inputs.Row(j), tmpIn)
		copy(tmpTg, d.Targets.Row(i))
		copy(d.Targets.Row(i), d.Targets.Row(j))
		copy(d.Targets.Row(j), tmpTg)
	})
}

// Split carves the dataset into train/val/test partitions of the given
// sizes (which must sum to at most N). Views share storage with d.
func (d *Dataset) Split(nTrain, nVal, nTest int) (train, val, test *Dataset, err error) {
	if nTrain <= 0 || nVal < 0 || nTest < 0 {
		return nil, nil, nil, fmt.Errorf("dataset: invalid split %d/%d/%d", nTrain, nVal, nTest)
	}
	if nTrain+nVal+nTest > d.N() {
		return nil, nil, nil, fmt.Errorf("dataset: split %d+%d+%d exceeds %d samples", nTrain, nVal, nTest, d.N())
	}
	view := func(start, rows int) *Dataset {
		if rows == 0 {
			return &Dataset{Spec: d.Spec, Cells: d.Cells, Norm: d.Norm, Normalized: d.Normalized,
				Inputs: tensor.New(1, d.Inputs.Cols()), Targets: tensor.New(1, d.Targets.Cols())}
		}
		return &Dataset{
			Spec: d.Spec, Cells: d.Cells, Norm: d.Norm, Normalized: d.Normalized,
			Inputs:  tensor.FromSlice(d.Inputs.Data[start*d.Inputs.Cols():(start+rows)*d.Inputs.Cols()], rows, d.Inputs.Cols()),
			Targets: tensor.FromSlice(d.Targets.Data[start*d.Targets.Cols():(start+rows)*d.Targets.Cols()], rows, d.Targets.Cols()),
		}
	}
	train = view(0, nTrain)
	val = view(nTrain, nVal)
	test = view(nTrain+nVal, nTest)
	return train, val, test, nil
}

// ---------------------------------------------------------------------------
// Persistence (float32 payload to halve file size)

type fileFormat struct {
	Version    int
	Spec       phasespace.GridSpec
	Cells      int
	N          int
	Norm       phasespace.Normalizer
	Normalized bool
	Inputs     []float32
	Targets    []float32
}

const fileVersion = 1

// init pins fileFormat's process-global gob type id by encoding a zero
// value to io.Discard at package init (see internal/nn/checkpoint.go):
// without it, the bytes of a saved corpus would depend on what else
// the process gob-(de)serialized first, and the byte-identical-corpora
// property `datagen -workers` is tested for would only hold within a
// single process history.
func init() {
	_ = gob.NewEncoder(io.Discard).Encode(fileFormat{})
}

// Save writes the dataset to w (gob, float32 payload).
func (d *Dataset) Save(w io.Writer) error {
	f := fileFormat{
		Version: fileVersion, Spec: d.Spec, Cells: d.Cells, N: d.N(),
		Norm: d.Norm, Normalized: d.Normalized,
		Inputs:  toF32(d.Inputs.Data),
		Targets: toF32(d.Targets.Data),
	}
	return gob.NewEncoder(w).Encode(f)
}

// Load reads a dataset saved with Save.
func Load(r io.Reader) (*Dataset, error) {
	var f fileFormat
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	if f.Version != fileVersion {
		return nil, fmt.Errorf("dataset: unsupported version %d", f.Version)
	}
	if f.N < 0 || len(f.Inputs) != f.N*f.Spec.Size() || len(f.Targets) != f.N*f.Cells {
		return nil, fmt.Errorf("dataset: corrupt payload (n=%d inputs=%d targets=%d)", f.N, len(f.Inputs), len(f.Targets))
	}
	d := &Dataset{
		Spec: f.Spec, Cells: f.Cells, Norm: f.Norm, Normalized: f.Normalized,
	}
	if f.N == 0 {
		return nil, fmt.Errorf("dataset: empty dataset file")
	}
	d.Inputs = tensor.FromSlice(toF64(f.Inputs), f.N, f.Spec.Size())
	d.Targets = tensor.FromSlice(toF64(f.Targets), f.N, f.Cells)
	return d, nil
}

// SaveFile saves to path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile loads from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func toF32(xs []float64) []float32 {
	out := make([]float32, len(xs))
	for i, v := range xs {
		out[i] = float32(v)
	}
	return out
}

func toF64(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}
