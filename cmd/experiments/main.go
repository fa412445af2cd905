// Command experiments reproduces the paper's evaluation end to end:
// it generates the training corpus with traditional PIC runs, trains the
// MLP and CNN electric-field solvers, and regenerates Table I and
// Figures 4-6, printing paper-vs-measured values and ASCII renderings of
// every figure panel. Series data is also written as CSV for external
// plotting.
//
// Usage:
//
//	experiments [-paper] [-seed N] [-outdir DIR] [-skip-cnn] \
//	            [-table1] [-fig4] [-fig5] [-fig6] [-oracle]
//
// With no experiment flags, everything runs. The default scale trains in
// minutes on one core; -paper selects the full paper-sized configuration
// (40,000 samples, 3x1024 MLP, 1000 particles/cell).
//
// Scan campaigns: -scan runs the scenario grid as a (resumable)
// campaign. -methods picks the field methods compared side by side
// (traditional, mlp, cnn, oracle — one comparison row per
// scenario x method); -journal FILE appends every completed cell to a
// checkpoint journal; -resume FILE continues an interrupted campaign,
// re-running only the missing cells and reproducing the uninterrupted
// results bit-identically (the printed campaign digest matches).
// -batched routes the DL methods' field solves through one shared
// batched-inference server, bit-identical to the per-call path; it and
// -batch are rejected when -methods names no DL method.
//
// -coordinator ADDR hosts the scan as a distributed campaign: instead
// of the local sweep pool, a coordinator hub listens on ADDR and
// dlpicworker fleets claim, execute and report the cells (requires
// -journal or -resume — the coordinator is the journal's only writer).
// DL methods train locally first, then ship to workers as
// fingerprint-addressed model bundles served from the campaign's
// bundle directory. The digest is bit-identical to a local run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dlpic/internal/ascii"
	"dlpic/internal/campaign"
	"dlpic/internal/cliutil"
	"dlpic/internal/diag"
	"dlpic/internal/dist"
	"dlpic/internal/experiments"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

func main() {
	var (
		paper   = flag.Bool("paper", false, "run the full paper-sized configuration")
		tiny    = flag.Bool("tiny", false, "run the seconds-scale smoke configuration")
		seed    = flag.Uint64("seed", 1, "root random seed")
		outdir  = flag.String("outdir", "", "directory for CSV series output (optional)")
		skipCNN = flag.Bool("skip-cnn", false, "skip CNN training (Table I reports MLP only)")
		table1  = flag.Bool("table1", false, "run Table I")
		fig4    = flag.Bool("fig4", false, "run Figure 4 (growth-rate validation)")
		fig5    = flag.Bool("fig5", false, "run Figure 5 (energy/momentum)")
		fig6    = flag.Bool("fig6", false, "run Figure 6 (cold beam)")
		oracle  = flag.Bool("oracle", false, "also run the learning-free oracle ablation")
		load    = flag.String("load-models", "", "load solver bundles from this directory instead of training")
		steps   = flag.Int("steps", 200, "steps per validation run (t = steps*0.2)")
		scan    = flag.Bool("scan", false, "run a concurrent growth-rate campaign over v0 x vth (see -methods, -journal, -resume)")
		scanV0s = flag.String("scan-v0s", "0.1,0.15,0.2,0.25,0.3", "scan beam speeds")
		scanVth = flag.String("scan-vths", "0.005,0.025", "scan thermal speeds")
		scanRep = flag.Int("scan-repeats", 1, "scan repeats per combination")
		scanPPC = flag.Int("scan-ppc", 250, "scan particles per cell (ignored when a DL method is scanned: the trained model fixes it)")
		workers = flag.Int("workers", 0, "concurrent scenario runs (0 = GOMAXPROCS); results are bit-identical for any value")
		trainW  = flag.Int("train-workers", 0, "data-parallel training workers (0 = GOMAXPROCS); trained weights are bit-identical for any value")
		methods = flag.String("methods", "", "comma-separated field methods to compare per scenario (traditional, mlp, cnn, oracle; default traditional)")
		journal = flag.String("journal", "", "append each completed scan cell to this checkpoint journal (JSON lines)")
		resume  = flag.String("resume", "", "resume an interrupted scan campaign from this journal, skipping completed cells")
		bundles = flag.String("bundle-dir", "", "persist and reuse trained model bundles + epoch-granular training checkpoints in this directory, keyed by training fingerprint (default: <journal>.artifacts when -journal/-resume is set; DL methods then resume mid-training and a completed campaign resumes with zero training epochs)")
		batched = flag.Bool("batched", false, "route the scan's DL field solves (-methods mlp, cnn) through the shared batched-inference server; results are bit-identical to the per-call path")
		batchN  = flag.Int("batch", 0, "batched-inference flush cap (0 = default)")
		coord   = flag.String("coordinator", "", "host the -scan campaign's coordinator at this address (host:port) and execute on dlpicworker fleets instead of the local pool (needs -journal or -resume)")
	)
	flag.Parse()
	// The campaign flags only act under -scan; reject them otherwise
	// instead of silently running the (hours-long) full suite without
	// journaling or method comparison.
	if !*scan && (*methods != "" || *journal != "" || *resume != "" || *bundles != "" || *coord != "") {
		fmt.Fprintln(os.Stderr, "experiments: -methods/-journal/-resume/-bundle-dir/-coordinator need -scan")
		os.Exit(1)
	}
	if *scan {
		err := runMethodScan(scanArgs{
			v0s: *scanV0s, vths: *scanVth, repeats: *scanRep, ppc: *scanPPC,
			steps: *steps, seed: *seed, workers: *workers,
			methods: *methods, batched: *batched, batchN: *batchN,
			journal: *journal, resume: *resume, bundleDir: *bundles,
			paper: *paper, load: *load, trainWorkers: *trainW, coordinator: *coord,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		// -scan composes with the main suite only when suite flags are
		// given explicitly; on its own it is the whole job.
		if !*table1 && !*fig4 && !*fig5 && !*fig6 && !*oracle {
			return
		}
	}
	if err := run(*paper, *tiny, *seed, *outdir, *skipCNN, *table1, *fig4, *fig5, *fig6, *oracle, *steps, *load, *trainW); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// scanArgs bundles the flags of the campaign scan.
type scanArgs struct {
	v0s, vths       string
	repeats, ppc    int
	steps           int
	seed            uint64
	workers         int
	methods         string
	batched         bool
	batchN          int
	journal, resume string
	bundleDir       string
	paper           bool
	load            string
	trainWorkers    int
	coordinator     string
}

// runMethodScan runs the v0 x vth grid as a resumable multi-method
// campaign: every scenario executes once per requested field method,
// the comparison table has one row per scenario x method cell, and a
// journal (if requested) checkpoints each completed cell so -resume
// can pick up an interrupted campaign bit-identically.
func runMethodScan(a scanArgs) error {
	v0s, err := cliutil.ParseFloats(a.v0s)
	if err != nil {
		return err
	}
	vths, err := cliutil.ParseFloats(a.vths)
	if err != nil {
		return err
	}
	if len(v0s) == 0 || len(vths) == 0 {
		return fmt.Errorf("empty scan axes (-scan-v0s %q, -scan-vths %q)", a.v0s, a.vths)
	}
	if a.journal != "" && a.resume != "" {
		return errors.New("-journal and -resume are mutually exclusive (resume appends to the journal it reads)")
	}
	if a.coordinator != "" {
		if a.journal == "" && a.resume == "" {
			return errors.New("-coordinator needs -journal or -resume (the coordinator is the journal's only writer)")
		}
		if a.batched {
			return errors.New("-coordinator executes cells on workers per-call; drop -batched")
		}
		if a.load != "" {
			return errors.New("-coordinator ships fingerprint-keyed bundles; -load-models bypasses the bundle store (use -bundle-dir instead)")
		}
	}
	raw := a.methods
	if raw == "" {
		raw = experiments.MethodTraditional
	}
	names, needMLP, needCNN, err := experiments.ResolveMethodNames(raw)
	if err != nil {
		return err
	}

	// The journal path (write or resume) also anchors the default
	// artifact directory for trained-model bundles.
	path := a.journal
	if a.resume != "" {
		path = a.resume
	}

	// Model-free campaigns (traditional / oracle) skip corpus generation
	// and training entirely. DL methods get a lazy pipeline provider:
	// the trained model fixes the base configuration (a pure function
	// of the scale, known up front), but corpus generation + training
	// only run when a DL cell actually executes — a resume whose DL
	// cells are all journaled costs nothing. With a journal (or an
	// explicit -bundle-dir), trained solvers persist as
	// fingerprint-keyed bundles: an interrupted campaign resumes
	// mid-training from the epoch checkpoint, and a completed one
	// reloads the bundle with zero training epochs.
	base := pic.Default()
	base.ParticlesPerCell = a.ppc
	var provider experiments.PipelineProvider
	bundleDir := a.bundleDir
	if bundleDir != "" && !needMLP && !needCNN {
		// Reject instead of silently ignoring — nothing would ever be
		// written there (same rule as the other campaign flags).
		return fmt.Errorf("-bundle-dir needs a DL method (mlp, cnn); got -methods %s", raw)
	}
	if (a.batched || a.batchN != 0) && !needMLP && !needCNN {
		// Same rule: these only change how a network's field solves run.
		return fmt.Errorf("-batched/-batch act on DL field solves and need a DL method (mlp, cnn); got -methods %s", raw)
	}
	if bundleDir != "" && a.load != "" {
		// -load-models bypasses training entirely, so the bundle store
		// would never be consulted; reject the contradiction.
		return errors.New("-bundle-dir and -load-models are mutually exclusive (loaded models skip training and bundles)")
	}
	if needMLP || needCNN {
		if bundleDir == "" && path != "" && a.load == "" {
			bundleDir = campaign.ArtifactDir(path)
		}
		pipeOpts := experiments.Options{
			Tiny: !a.paper, Paper: a.paper, Seed: a.seed, Log: os.Stderr,
			SkipCNN: !needCNN, LoadModels: a.load, TrainWorkers: a.trainWorkers,
			BundleDir: bundleDir,
		}
		base = pipeOpts.BaseConfig()
		provider = experiments.NewPipelineProvider(pipeOpts)
	}
	specs, cleanup, err := experiments.MethodsWith(provider, names, experiments.MethodConfig{
		Batched: a.batched, MaxBatch: a.batchN,
	})
	if err != nil {
		return err
	}
	defer cleanup()

	scenarios := sweep.Grid(base, v0s, vths, a.repeats, a.steps, a.seed)
	cells := len(scenarios) * len(specs)
	fmt.Printf("== Growth-rate campaign: %d scenarios x %d methods = %d cells (%d steps, %d particles each) ==\n",
		len(scenarios), len(specs), cells, a.steps, base.NumParticles())

	// Restored cells show up through the progress offset: a resumed
	// campaign's first progress line already counts them as done.
	if a.resume != "" {
		fmt.Printf("resuming from %s\n", path)
	} else if path != "" {
		fmt.Printf("journaling to %s\n", path)
	}
	if bundleDir != "" {
		fmt.Printf("model bundles: %s\n", bundleDir)
	}

	spec := campaign.Spec{
		Scenarios: scenarios,
		Opts: sweep.Options{
			Workers:  a.workers,
			Methods:  specs,
			Progress: scanProgress("scan"),
		},
	}
	if a.coordinator != "" {
		// Worker churn and injected RPC faults make transient failures
		// expected; give the campaign a real deterministic retry budget.
		// The digest excludes attempt counts, so it still matches a
		// local run's bit for bit.
		spec.Retry = campaign.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, Seed: a.seed}
	}
	start := time.Now()
	var results []sweep.Result
	switch {
	case a.coordinator != "":
		results, err = runCoordinated(a.coordinator, path, bundleDir, spec, provider, names)
	case a.resume != "":
		results, err = campaign.Resume(path, spec)
	default:
		results, err = campaign.Run(path, spec)
	}
	// A journal-append failure (disk full, unserializable metric) still
	// returns the fully computed result set — print it before
	// surfacing the error, so hours of compute are never discarded.
	if results == nil {
		return err
	}
	journalErr := err
	elapsed := time.Since(start)
	fmt.Println(methodScanTable(results))
	// Per-cell elapsed times overlap under the pool (and are inflated
	// by time-slicing on few cores), so their sum over wall time
	// measures achieved concurrency, not a serial-baseline speedup.
	var sum time.Duration
	for i := range results {
		sum += results[i].Elapsed
	}
	fmt.Printf("campaign wall time %v; per-cell run times sum to %v (%.1fx concurrency)\n",
		elapsed.Round(time.Millisecond), sum.Round(time.Millisecond),
		float64(sum)/float64(elapsed))
	// The digest covers everything but wall-clock timings: an
	// interrupted+resumed campaign must print the same digest as an
	// uninterrupted one (the CI smoke diffs exactly this line).
	fmt.Printf("campaign digest: %s\n\n", campaign.Digest(results))
	if journalErr != nil {
		return journalErr
	}
	return sweep.FirstError(results)
}

// runCoordinated hosts the scan's coordinator hub at addr and blocks
// until remote dlpicworker fleets complete the campaign. DL methods
// resolve eagerly — provider() trains (or reloads a
// fingerprint-matched bundle) before the hub opens for claims — and
// their persisted bundles ship to workers as fingerprint-addressed
// BundleRefs served from bundleDir over GET /bundles/{fp}.
func runCoordinated(addr, journalPath, bundleDir string, spec campaign.Spec,
	provider experiments.PipelineProvider, names []string) ([]sweep.Result, error) {
	var refs []dist.BundleRef
	for _, name := range names {
		if name != experiments.MethodMLP && name != experiments.MethodCNN {
			continue
		}
		p, err := provider()
		if err != nil {
			return nil, err
		}
		bundlePath, ok := p.BundlePaths[name]
		if !ok {
			return nil, fmt.Errorf("distributed method %q has no persisted model bundle to ship (is the bundle directory writable?)", name)
		}
		ref, err := dist.BundleRefFromFile(name, bundlePath)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	hub := dist.NewHub(dist.Options{Log: os.Stderr, BundleDir: bundleDir})
	mux := http.NewServeMux()
	hub.Register(mux)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coordinator listen: %w", err)
	}
	// Bounded header reads and idle sockets; deliberately no
	// WriteTimeout: a parked worker claim is a long-lived response by
	// design.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("coordinator listening on %s\n", ln.Addr())
	return hub.Run("scan", journalPath, spec, refs...)
}

// methodScanTable renders one comparison row per scenario x method cell.
func methodScanTable(results []sweep.Result) string {
	rows := [][]string{{"Scenario", "Method", "Theory gamma", "Fitted gamma", "R2", "Energy var", "Run time"}}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			rows = append(rows, []string{r.Scenario.Name, r.Method, "-", "error: " + r.Err.Error(), "-", "-", "-"})
			continue
		}
		fitted, r2 := "no growth window", "-"
		if r.FitOK {
			fitted = fmt.Sprintf("%.4f", r.Growth.Gamma)
			r2 = fmt.Sprintf("%.3f", r.Growth.R2)
		}
		rows = append(rows, []string{
			r.Scenario.Name,
			r.Method,
			fmt.Sprintf("%.4f", r.TheoryGamma),
			fitted, r2,
			fmt.Sprintf("%.2f%%", 100*r.EnergyVariation),
			r.Elapsed.Round(time.Millisecond).String(),
		})
	}
	return ascii.Table(rows)
}

// scanProgress returns a serialized progress callback labelled by stage.
func scanProgress(stage string) func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs", stage, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func run(paper, tiny bool, seed uint64, outdir string, skipCNN, t1, f4, f5, f6, oracle bool, steps int, load string, trainWorkers int) error {
	// -oracle is additive: it never suppresses the main suite.
	all := !t1 && !f4 && !f5 && !f6
	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
	}
	modelDir := ""
	if outdir != "" {
		modelDir = outdir
	}
	if load != "" {
		modelDir = "" // don't overwrite what we are loading
	}
	p, err := experiments.New(experiments.Options{
		Paper: paper, Tiny: tiny, Seed: seed, Log: os.Stderr, SkipCNN: skipCNN,
		ModelDir: modelDir, LoadModels: load, TrainWorkers: trainWorkers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("DL-PIC experiment harness — %s scale, seed %d\n", scaleName(paper, tiny), seed)
	fmt.Printf("corpus: %d train / %d val / %d test-I samples (%v generation)\n\n",
		p.Train.N(), p.Val.N(), p.TestI.N(), p.GenTime.Round(1e9))

	if all || t1 {
		if err := renderTable1(p); err != nil {
			return err
		}
	}

	var fig4Res *experiments.Fig4Result
	if all || f4 || f5 {
		fig4Res, err = p.Fig4(steps)
		if err != nil {
			return err
		}
	}
	if all || f4 {
		renderFig4(p, fig4Res)
		if outdir != "" {
			if err := writeCSV(filepath.Join(outdir, "fig4_traditional.csv"), &fig4Res.Traditional.Rec); err != nil {
				return err
			}
			if err := writeCSV(filepath.Join(outdir, "fig4_dl.csv"), &fig4Res.DL.Rec); err != nil {
				return err
			}
		}
	}
	if all || f5 {
		renderFig5(fig4Res)
	}
	if all || f6 {
		res, err := p.Fig6(steps)
		if err != nil {
			return err
		}
		renderFig6(res)
		if outdir != "" {
			if err := writeCSV(filepath.Join(outdir, "fig6_traditional.csv"), &res.Traditional.Rec); err != nil {
				return err
			}
			if err := writeCSV(filepath.Join(outdir, "fig6_dl.csv"), &res.DL.Rec); err != nil {
				return err
			}
		}
	}
	if all || oracle {
		res, err := p.OracleRun(steps)
		if err != nil {
			return err
		}
		renderOracle(res)
	}
	return nil
}

func scaleName(paper, tiny bool) string {
	switch {
	case tiny:
		return "tiny"
	case paper:
		return "paper"
	default:
		return "scaled"
	}
}

func writeCSV(path string, rec *diag.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

func renderTable1(p *experiments.Pipeline) error {
	res, err := p.Table1()
	if err != nil {
		return err
	}
	fmt.Println("== Table I: MAE and maximum error of the DL electric-field solver ==")
	fmt.Printf("(test set I: held-out samples from training parameters; set II: %d samples\n", res.SetIISamples)
	fmt.Printf(" from unseen parameters; max |E| in the corpus: measured %.3g, paper ~%.1g)\n\n",
		res.MaxFieldInCorpus, experiments.PaperMaxField)
	fmt.Println(ascii.Table(res.Rows()))
	return nil
}

func renderFig4(p *experiments.Pipeline, res *experiments.Fig4Result) {
	fmt.Println("== Figure 4: two-stream validation (v0 = 0.2, vth = 0.025) ==")
	fmt.Println()
	spec := p.Spec
	fmt.Print(ascii.PhaseSpace(res.Traditional.FinalX, res.Traditional.FinalV,
		spec.L, -0.45, 0.45, 64, 20, "Traditional PIC — electron phase space at t=40"))
	fmt.Println()
	fmt.Print(ascii.PhaseSpace(res.DL.FinalX, res.DL.FinalV,
		spec.L, -0.45, 0.45, 64, 20, "DL-based PIC (MLP) — electron phase space at t=40"))
	fmt.Println()

	ampsT, _ := res.Traditional.Rec.Series("mode")
	ampsD, _ := res.DL.Rec.Series("mode")
	times := res.Traditional.Rec.Times()
	theoryLine := make([]float64, len(times))
	// Anchor the theory slope at the traditional run's fitted intercept.
	anchor := 1e-4
	if res.Traditional.FitOK {
		anchor = math.Exp(res.Traditional.Growth.Intercept)
	}
	for i, tt := range times {
		theoryLine[i] = anchor * math.Exp(res.TheoryGamma*tt)
		if theoryLine[i] > 0.2 {
			theoryLine[i] = 0.2 // clip past saturation for readability
		}
	}
	fmt.Print(ascii.LineChart([]ascii.Series{
		{Name: "traditional", X: times, Y: ampsT},
		{Name: "DL-based", X: times, Y: ampsD},
		{Name: "linear theory", X: times, Y: theoryLine},
	}, 70, 18, "E1 amplitude of the most unstable mode (log scale)", true))
	fmt.Println()

	rows := [][]string{{"Quantity", "Paper", "Measured"}}
	rows = append(rows, []string{"linear theory gamma (cold)", "0.3536", fmt.Sprintf("%.4f", res.TheoryGamma)})
	rows = append(rows, []string{"linear theory gamma (warm corr.)", "-", fmt.Sprintf("%.4f", res.WarmGamma)})
	rows = append(rows, []string{"traditional PIC gamma", "matches theory", fitString(res.Traditional)})
	rows = append(rows, []string{"DL-based PIC gamma", "matches theory", fitString(res.DL)})
	fmt.Println(ascii.Table(rows))
}

func fitString(r *experiments.RunResult) string {
	if !r.FitOK {
		return "no clean growth window"
	}
	return fmt.Sprintf("%.4f (R2=%.3f)", r.Growth.Gamma, r.Growth.R2)
}

func renderFig5(res *experiments.Fig4Result) {
	fmt.Println("== Figure 5: total energy and momentum (v0 = 0.2, vth = 0.025) ==")
	fmt.Println()
	times := res.Traditional.Rec.Times()
	totT, _ := res.Traditional.Rec.Series("total")
	totD, _ := res.DL.Rec.Series("total")
	fmt.Print(ascii.LineChart([]ascii.Series{
		{Name: "traditional", X: times, Y: totT},
		{Name: "DL-based", X: times, Y: totD},
	}, 70, 12, "Total energy", false))
	fmt.Println()
	momT, _ := res.Traditional.Rec.Series("momentum")
	momD, _ := res.DL.Rec.Series("momentum")
	fmt.Print(ascii.LineChart([]ascii.Series{
		{Name: "traditional", X: times, Y: momT},
		{Name: "DL-based", X: times, Y: momD},
	}, 70, 12, "Total momentum", false))
	fmt.Println()
	rows := [][]string{{"Quantity", "Paper", "Measured"}}
	rows = append(rows, []string{"traditional max energy variation", "~2%",
		fmt.Sprintf("%.2f%%", 100*res.Traditional.EnergyVariation)})
	rows = append(rows, []string{"DL-based max energy variation", "~2% (not conserved)",
		fmt.Sprintf("%.2f%%", 100*res.DL.EnergyVariation)})
	rows = append(rows, []string{"traditional momentum drift", "~0 (conserved)",
		fmt.Sprintf("%.3g", res.Traditional.MomentumDrift)})
	rows = append(rows, []string{"DL-based momentum drift", "negative drift",
		fmt.Sprintf("%.3g", res.DL.MomentumDrift)})
	fmt.Println(ascii.Table(rows))
}

func renderFig6(res *experiments.Fig6Result) {
	fmt.Println("== Figure 6: cold-beam stability (v0 = 0.4, vth = 0) ==")
	fmt.Println()
	l := 2 * math.Pi / 3.06
	fmt.Print(ascii.PhaseSpace(res.Traditional.FinalX, res.Traditional.FinalV,
		l, -0.6, 0.6, 64, 20, "Traditional PIC — phase space at t=40 (cold-beam ripples)"))
	fmt.Println()
	fmt.Print(ascii.PhaseSpace(res.DL.FinalX, res.DL.FinalV,
		l, -0.6, 0.6, 64, 20, "DL-based PIC (MLP) — phase space at t=40"))
	fmt.Println()
	times := res.Traditional.Rec.Times()
	totT, _ := res.Traditional.Rec.Series("total")
	totD, _ := res.DL.Rec.Series("total")
	fmt.Print(ascii.LineChart([]ascii.Series{
		{Name: "traditional", X: times, Y: totT},
		{Name: "DL-based", X: times, Y: totD},
	}, 70, 12, "Total energy (cold beam)", false))
	fmt.Println()
	rows := [][]string{{"Quantity", "Paper", "Measured"}}
	rows = append(rows, []string{"traditional beam heating (RMS dv)", "ripples visible",
		fmt.Sprintf("%.4g -> %.4g", res.Traditional.VelocitySpreadStart, res.Traditional.VelocitySpreadEnd)})
	rows = append(rows, []string{"DL-based beam heating (RMS dv)", "no ripples",
		fmt.Sprintf("%.4g -> %.4g", res.DL.VelocitySpreadStart, res.DL.VelocitySpreadEnd)})
	rows = append(rows, []string{"DL cycle + exact solver (oracle)", "-",
		fmt.Sprintf("%.4g -> %.4g", res.Oracle.VelocitySpreadStart, res.Oracle.VelocitySpreadEnd)})
	rows = append(rows, []string{"traditional energy variation", "grows (instability)",
		fmt.Sprintf("%.3f%%", 100*res.Traditional.EnergyVariation)})
	rows = append(rows, []string{"DL-based energy variation", "flat-ish",
		fmt.Sprintf("%.3f%%", 100*res.DL.EnergyVariation)})
	rows = append(rows, []string{"DL cycle + exact solver energy var.", "-",
		fmt.Sprintf("%.3f%%", 100*res.Oracle.EnergyVariation)})
	rows = append(rows, []string{"DL-based momentum drift", "grows with time",
		fmt.Sprintf("%.3g", res.DL.MomentumDrift)})
	fmt.Println(ascii.Table(rows))
}

func renderOracle(res *experiments.RunResult) {
	fmt.Println("== Oracle ablation: DL cycle with exact field recovery ==")
	rows := [][]string{{"Quantity", "Value"}}
	rows = append(rows, []string{"growth rate", fitString(res)})
	rows = append(rows, []string{"energy variation", fmt.Sprintf("%.2f%%", 100*res.EnergyVariation)})
	rows = append(rows, []string{"momentum drift", fmt.Sprintf("%.3g", res.MomentumDrift)})
	fmt.Println(ascii.Table(rows))
}
