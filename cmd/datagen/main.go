// Command datagen produces a training corpus for the DL electric-field
// solver by running a sweep of traditional PIC simulations and capturing
// (phase-space histogram, electric field) pairs, as described in the
// paper's §IV-1. The corpus is written as a single binary file consumed
// by cmd/train.
//
// Examples:
//
//	datagen -out corpus.ds                       # scaled default sweep
//	datagen -out corpus.ds -paper                # the 40,000-sample corpus
//	datagen -out corpus.ds -v0s 0.1,0.2 -vths 0,0.01 -repeats 3
package main

import (
	"flag"
	"fmt"
	"os"

	"dlpic/internal/cliutil"
	"dlpic/internal/dataset"
	"dlpic/internal/interp"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
)

func main() {
	var (
		out     = flag.String("out", "corpus.ds", "output dataset path")
		paper   = flag.Bool("paper", false, "paper-sized sweep (20 combos x 10 repeats x 200 steps, 1000 ppc)")
		v0s     = flag.String("v0s", "", "comma-separated beam speeds (overrides scale default)")
		vths    = flag.String("vths", "", "comma-separated thermal speeds (overrides scale default)")
		repeats = flag.Int("repeats", 0, "experiments per combination (0 = scale default)")
		steps   = flag.Int("steps", 0, "steps per experiment (0 = scale default)")
		every   = flag.Int("every", 0, "sample every N steps (0 = scale default)")
		ppc     = flag.Int("ppc", 0, "particles per cell (0 = scale default)")
		nv      = flag.Int("nv", 64, "phase-space velocity bins")
		binning = flag.String("binning", "NGP", "phase-space binning: NGP | CIC")
		seed    = flag.Uint64("seed", 1, "root seed")
		workers = flag.Int("workers", 0, "concurrent scenario runs (0 = GOMAXPROCS); results are bit-identical for any value")
	)
	flag.Parse()
	if err := run(*out, *paper, *v0s, *vths, *repeats, *steps, *every, *ppc, *nv, *binning, *seed, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(out string, paper bool, v0sRaw, vthsRaw string, repeats, steps, every, ppc, nv int, binning string, seed uint64, workers int) error {
	cfg := pic.Default()
	if !paper {
		cfg.ParticlesPerCell = 250
	}
	if ppc > 0 {
		cfg.ParticlesPerCell = ppc
	}
	spec := phasespace.DefaultSpec(cfg.Length)
	spec.NV = nv
	bin, err := interp.ParseScheme(binning)
	if err != nil {
		return err
	}
	spec.Binning = bin

	opts := dataset.PaperSweep(cfg, spec, seed)
	if !paper {
		opts.V0s = []float64{0.1, 0.15, 0.18, 0.3}
		opts.Vths = []float64{0.0, 0.005}
		opts.Repeats, opts.Steps, opts.SampleEvery = 2, 200, 2
	}
	opts.Workers = workers
	if v0s, err := cliutil.ParseFloats(v0sRaw); err != nil {
		return err
	} else if v0s != nil {
		opts.V0s = v0s
	}
	if vths, err := cliutil.ParseFloats(vthsRaw); err != nil {
		return err
	} else if vths != nil {
		opts.Vths = vths
	}
	if repeats > 0 {
		opts.Repeats = repeats
	}
	if steps > 0 {
		opts.Steps = steps
	}
	if every > 0 {
		opts.SampleEvery = every
	}
	total := len(opts.V0s) * len(opts.Vths) * opts.Repeats
	fmt.Fprintf(os.Stderr, "datagen: %d runs x %d steps (every %d), %d particles, %dx%d %s bins\n",
		total, opts.Steps, opts.SampleEvery, cfg.NumParticles(), spec.NX, spec.NV, spec.Binning)
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rdatagen: %d/%d runs", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	ds, err := dataset.Generate(opts)
	if err != nil {
		return err
	}
	// Normalization is fitted and stored here so training and inference
	// share the exact transform.
	if err := ds.Normalize(); err != nil {
		return err
	}
	if err := ds.SaveFile(out); err != nil {
		return err
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples, %dx%d inputs -> %d outputs, %.1f MB\n",
		out, ds.N(), ds.Spec.NX, ds.Spec.NV, ds.Cells, float64(info.Size())/1e6)
	return nil
}
