package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dlpic/internal/batch"
	"dlpic/internal/campaign"
	"dlpic/internal/core"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
)

// campaign_local: campaign.Run with an on-disk journal on the in-process
// sweep pool. 8 scenarios (a v0 grid jittered from the seed, 250 ppc,
// 200 steps) x {traditional, oracle, mlp through the batched inference
// server} = 24 cells per op. Every op runs the same spec into a fresh
// journal, so every op's digest must equal the Workers = 1 sweep.Run
// reference computed in set-up. It is the guard for ROADMAP item C and
// the "same cells, different scheduler" twin of fleet_campaign.

type campaignSize struct {
	scenarios, ppc, steps int
}

var (
	fullCampaign  = campaignSize{scenarios: 8, ppc: 250, steps: 200}
	quickCampaign = campaignSize{scenarios: 2, ppc: 40, steps: 60}
)

// jitteredV0s spreads n beam speeds over [0.15, 0.25] and moves each by
// up to +-0.002 from the seed: different inputs per seed, same work.
func jitteredV0s(n int, r *rng.Source) []float64 {
	v0s := make([]float64, n)
	for i := range v0s {
		v0s[i] = 0.15 + 0.1*float64(i)/float64(max(n-1, 1)) + 0.004*(r.Float64()-0.5)
	}
	return v0s
}

func oracleFactory(sc sweep.Scenario) (pic.FieldMethod, error) {
	return core.NewOracleSolver(sc.Cfg, phasespace.DefaultSpec(sc.Cfg.Length))
}

func runCampaignLocal(e *env) (*outcome, error) {
	sz, fix := fullCampaign, fullFixture
	if e.quick {
		sz, fix = quickCampaign, quickFixture
	}
	base := pic.Default()
	base.ParticlesPerCell = sz.ppc
	o := &outcome{}

	var (
		solver  *core.NNSolver
		batched *batch.Solver
		spec    campaign.Spec
		refSum  string
	)
	err := o.timeSetup(func() (err error) {
		if solver, _, err = trainSolver(base, fix, e.seed); err != nil {
			return err
		}
		if batched, err = batch.FromNNSolver(solver, 0); err != nil {
			return err
		}
		r := rng.New(e.seed)
		spec = campaign.Spec{
			Scenarios: sweep.Grid(base, jitteredV0s(sz.scenarios, r), []float64{0.01}, 1, sz.steps, r.Uint64()),
			Opts: sweep.Options{Workers: e.procs, Methods: []sweep.MethodSpec{
				{Name: "traditional"},
				{Name: "oracle", Factory: oracleFactory},
				{Name: "mlp", Batcher: batched},
			}},
		}
		// The reference doubles as the warm-up: same cells, one worker,
		// no journal, no campaign engine.
		serial := spec.Opts
		serial.Workers = 1
		ref := sweep.Run(spec.Scenarios, serial)
		if err := sweep.FirstError(ref); err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
		refSum = campaign.Digest(ref)
		return nil
	})
	if batched != nil {
		defer batched.Close()
	}
	if err != nil {
		return nil, err
	}
	cells := len(spec.Scenarios) * len(spec.Opts.Methods)

	var (
		busy, tracedMS, plainMS, digestMS []float64
		lastPath                          string
		lastResults                       []sweep.Result
		stats0                            = batched.Server.Stats()
	)
	e.measure(o, func(i int) (float64, error) {
		// Spans on odd ops only, so one run yields the tracing overhead.
		var tr *tracer
		if i%2 == 1 {
			tr = e.tr
		}
		if lastPath != "" {
			os.Remove(lastPath)
		}
		lastPath = filepath.Join(e.tmp, fmt.Sprintf("campaign-%d.jsonl", i))
		t0 := time.Now()
		id := tr.begin("campaign.run", -1, i)
		results, err := campaign.Run(lastPath, spec)
		tr.end(id)
		wall := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := sweep.FirstError(results); err != nil {
			return 0, err
		}
		id = tr.begin("campaign.digest", -1, i)
		t1 := time.Now()
		sum := e.digest(campaign.Digest(results))
		digestMS = append(digestMS, msSince(t1))
		tr.end(id)
		if sum != refSum {
			return 0, fmt.Errorf("campaign digest %s, serial sweep.Run reference %s", sum, refSum)
		}
		var exec time.Duration
		for _, r := range results {
			exec += r.Elapsed
		}
		busy = append(busy, exec.Seconds()/(float64(e.procs)*wall.Seconds()))
		if tr != nil {
			tracedMS = append(tracedMS, msSince(t0))
		} else {
			plainMS = append(plainMS, msSince(t0))
		}
		lastResults = results
		return float64(cells), nil
	})
	if e.tr == nil || lastResults == nil {
		return o, nil
	}

	o.set("sweep.pool_busy_share", median(busy))
	o.set("campaign.unaccounted_pct", 100*(1-median(busy)))
	o.set("campaign.digest_ms", median(digestMS))
	o.set("trace.overhead_pct", overheadPct(tracedMS, plainMS))
	st := batched.Server.Stats()
	reqs, flushes := float64(st.Requests-stats0.Requests), float64(st.Batches-stats0.Batches)
	o.set("batch.requests", reqs/float64(o.attempted))
	o.set("batch.flushes", flushes/float64(o.attempted))
	if flushes > 0 {
		o.set("batch.avg_batch", reqs/flushes)
	}
	if err := journalLedger(e, o, lastPath, spec, lastResults); err != nil {
		o.failRest(err)
	}
	cellLedger(o, spec, map[string]string{
		"traditional": "sweep.cell_trad_ms", "oracle": "sweep.cell_oracle_ms", "mlp": "sweep.cell_mlp_ms"})
	return o, modelLedger(e, o, solver, base.Cells)
}

// journalLedger measures the journal's write and read paths on the last
// op's finished journal. Resume must restore every cell and re-run
// none: restored cells carry their recorded Elapsed verbatim.
func journalLedger(e *env, o *outcome, path string, spec campaign.Spec, results []sweep.Result) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	o.set("campaign.journal_bytes_per_cell", float64(fi.Size())/float64(len(results)))

	t0 := time.Now()
	recs, err := campaign.LoadJournal(path)
	o.set("campaign.journal_load_ms", msSince(t0))
	if err != nil {
		return err
	}
	if len(recs) != len(results) {
		return fmt.Errorf("journal holds %d records for %d cells", len(recs), len(results))
	}

	t0 = time.Now()
	resumed, err := campaign.Resume(path, spec)
	o.set("campaign.resume_ms", msSince(t0))
	if err != nil {
		return err
	}
	if a, b := campaign.Digest(resumed), campaign.Digest(results); a != b {
		return fmt.Errorf("resumed digest %s, original %s", a, b)
	}
	for i := range resumed {
		if resumed[i].Elapsed != results[i].Elapsed {
			return fmt.Errorf("resume re-ran cell %d instead of restoring it", i)
		}
	}

	// Append cost on its own: real records into a scratch journal.
	cells, err := campaign.Cells(spec)
	if err != nil {
		return err
	}
	j, _, err := campaign.OpenJournal(filepath.Join(e.tmp, "append.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	var us []float64
	for rep := 0; rep < 5; rep++ {
		for i, c := range cells {
			rec := campaign.NewRecord(c.Key, 1, results[i])
			t0 := time.Now()
			err := j.Append(rec)
			us = append(us, usSince(t0))
			if err != nil {
				return err
			}
		}
	}
	e.timings["campaign.journal_append_us"] = summarize(us, "us")
	o.set("campaign.journal_append_us", median(us))
	return nil
}

// cellLedger times one cell per method directly through
// sweep.RunScenario, outside any pool or journal.
func cellLedger(o *outcome, spec campaign.Spec, metric map[string]string) {
	for _, m := range spec.Opts.Methods {
		name, ok := metric[m.Name]
		if !ok {
			continue
		}
		var ms []float64
		for rep := 0; rep < 3; rep++ {
			res := sweep.RunScenario(spec.Scenarios[0], m, spec.Opts)
			if res.Err != nil {
				o.failRest(res.Err)
				return
			}
			ms = append(ms, float64(res.Elapsed)/float64(time.Millisecond))
		}
		o.set(name, median(ms))
	}
}

// modelLedger times moving the model bundle through disk: save here,
// load and clone in loadLedger.
func modelLedger(e *env, o *outcome, solver *core.NNSolver, cells int) error {
	path := filepath.Join(e.tmp, "model.dlpic")
	saveMS, err := repeatMedian(5, time.Millisecond, func() error { return core.SaveModelFile(solver, cells, path) })
	if err != nil {
		return err
	}
	o.set("core.bundle_save_ms", saveMS)
	return loadLedger(o, path)
}

// loadLedger times loading the model bundle at path and cloning its
// network: what a per-call DL cell pays before its first step.
func loadLedger(o *outcome, path string) error {
	var solver *core.NNSolver
	loadMS, err := repeatMedian(5, time.Millisecond, func() (err error) {
		solver, err = core.LoadModelFile(path)
		return err
	})
	if err != nil {
		return err
	}
	cloneMS, err := repeatMedian(5, time.Millisecond, func() error {
		_, err := nn.Clone(solver.Net)
		return err
	})
	o.set("core.bundle_load_ms", loadMS)
	o.set("nn.clone_ms", cloneMS)
	return err
}
