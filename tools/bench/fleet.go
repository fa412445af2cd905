package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlpic/internal/campaign"
	"dlpic/internal/dist"
	"dlpic/internal/experiments"
	"dlpic/internal/rng"
	"dlpic/internal/serve"
	"dlpic/internal/sweep"
)

// fleet_campaign: an in-process coordinator daemon behind a loopback
// net/http listener plus -procs dist.Workers (bundle cache,
// experiments.BundleMethod, ClaimBatch 1) over real HTTP. The op is one
// job: POST /campaigns, then poll until it is done with a digest. Jobs
// are scale "tiny", 12 v0 x 2 vth x {traditional, mlp}, 400 steps,
// distributed = 48 cells; they differ by seeded v0 jitter (so the
// daemon cannot dedup them) but share the spec seed, so one model is
// trained and shipped once - in the warm-up job, counted in setup_s -
// and later jobs hit the workers' bundle caches.

type fleetSize struct {
	v0s, steps int
	vths       []float64
	poll       time.Duration
}

var (
	fullFleet  = fleetSize{v0s: 12, steps: 400, vths: []float64{0.005, 0.015}, poll: 10 * time.Millisecond}
	quickFleet = fleetSize{v0s: 2, steps: 40, vths: []float64{0.01}, poll: 2 * time.Millisecond}
)

var fleetMethods = []string{experiments.MethodTraditional, experiments.MethodMLP}

// fleet is the running system under test plus its client.
type fleet struct {
	daemon  *serve.Daemon
	server  *http.Server
	url     string
	client  *http.Client
	stop    atomic.Bool
	workers sync.WaitGroup
	served  chan struct{} // closed when the listener goroutine has ended
	routes  *routeTimer
	poll    time.Duration
}

// routeTimer is the tracing middleware around Daemon.Handler(): one span
// per lease-protocol request, named after its route, under the span of
// the job being measured. It is installed on traced runs only and
// records while job is set (>= 0).
type routeTimer struct {
	tr *tracer
	// job and op are the current job's span id and op number; -1 = off.
	job, op atomic.Int64
	// Bundle downloads happen once, during the warm-up job, so they are
	// recorded whenever the middleware is installed.
	bundleBytes atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (rt *routeTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, bundle := "", false
		switch {
		case strings.HasPrefix(r.URL.Path, "/dist/"):
			route = "dist." + strings.TrimPrefix(r.URL.Path, "/dist/")
		case strings.HasPrefix(r.URL.Path, "/bundles/"):
			route, bundle = "dist.bundle", true
		}
		job := int(rt.job.Load())
		if route == "" || (job < 0 && !bundle) {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		rt.tr.record(route, job, int(rt.op.Load()), t0, time.Now())
		if bundle {
			rt.bundleBytes.Add(cw.n)
		}
	})
}

func startFleet(e *env, sz fleetSize) (*fleet, error) {
	daemon, err := serve.New(serve.Config{DataDir: filepath.Join(e.tmp, "daemon"), Coordinator: true, TrainWorkers: e.procs})
	if err != nil {
		return nil, err
	}
	f := &fleet{daemon: daemon, client: &http.Client{}, poll: sz.poll}
	handler := daemon.Handler()
	if e.tr != nil {
		f.routes = &routeTimer{tr: e.tr}
		f.routes.job.Store(-1)
		handler = f.routes.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		daemon.Drain()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.server = &http.Server{Handler: handler}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		f.server.Serve(ln) // returns once close() shuts the server down
	}()

	local, _, err := experiments.MethodsWith(nil, []string{experiments.MethodTraditional}, experiments.MethodConfig{})
	if err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < e.procs; i++ {
		cache, err := dist.NewBundleCache(filepath.Join(e.tmp, fmt.Sprintf("cache-%d", i)), 0)
		if err != nil {
			f.close()
			return nil, err
		}
		w, err := dist.NewWorker(dist.WorkerOptions{
			ID: fmt.Sprintf("w%d", i), Client: dist.NewClient(f.url, nil), Methods: local,
			BundleMethods: []string{experiments.MethodMLP}, Cache: cache,
			BundleMethod: experiments.BundleMethod, ClaimBatch: 1,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			w.Run(f.stop.Load) // absorbs every error into the lease protocol
		}()
	}
	return f, nil
}

// close stops the workers, the listener and the daemon, and waits for
// each to end.
func (f *fleet) close() {
	f.stop.Store(true)
	f.workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.server.Shutdown(ctx)
	<-f.served
	f.client.CloseIdleConnections()
	f.daemon.Drain()
}

// job is one submitted campaign as the client saw it.
type job struct {
	status      serve.JobStatus
	submitMS    float64
	firstCellMS float64
	totalMS     float64
	statusUS    []float64
}

func (f *fleet) getStatus(id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := f.client.Get(f.url + "/campaigns/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /campaigns/%s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runJob submits spec and polls it to a terminal state: the closed
// loop's one submitter waiting for its result.
func (f *fleet) runJob(spec serve.CampaignSpec) (*job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := f.client.Post(f.url+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /campaigns: %s (a 200 means the daemon deduped the job)", resp.Status)
	}
	if err != nil {
		return nil, err
	}
	j := &job{submitMS: msSince(t0)}
	for {
		t1 := time.Now()
		st, err = f.getStatus(st.ID)
		j.statusUS = append(j.statusUS, usSince(t1))
		if err != nil {
			return nil, err
		}
		if st.Done > 0 && j.firstCellMS == 0 {
			j.firstCellMS = msSince(t0)
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed || st.State == serve.StateInterrupted {
			break
		}
		if time.Since(t0) > 2*time.Minute {
			return nil, fmt.Errorf("job %s still %s after 2 minutes", st.ID, st.State)
		}
		time.Sleep(f.poll)
	}
	j.status, j.totalMS = st, msSince(t0)
	return j, nil
}

func (j *job) check(cells int) error {
	st := j.status
	switch {
	case st.State != serve.StateDone:
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Failed != 0:
		return fmt.Errorf("job %s: %d failed cells", st.ID, st.Failed)
	case st.Done != cells || st.Total != cells:
		return fmt.Errorf("job %s: %d/%d cells done, want %d", st.ID, st.Done, st.Total, cells)
	case st.Digest == "":
		return fmt.Errorf("job %s finished without a digest", st.ID)
	}
	return nil
}

// localDigest runs spec in-process through campaign.Run, planned the
// way the daemon plans it, reusing the model the daemon trained.
func localDigest(f *fleet, spec serve.CampaignSpec, procs int) (string, error) {
	opts := experiments.Options{Tiny: true, Seed: spec.Seed, SkipCNN: true, BundleDir: f.daemon.BundleDir()}
	p, err := experiments.New(opts)
	if err != nil {
		return "", err
	}
	methods, cleanup, err := experiments.MethodsWith(experiments.FixedPipeline(p), spec.Methods, experiments.MethodConfig{})
	if err != nil {
		return "", err
	}
	defer cleanup()
	results, err := campaign.Run("", campaign.Spec{
		Scenarios: sweep.Grid(opts.BaseConfig(), spec.V0s, spec.Vths, 1, spec.Steps, spec.Seed),
		Opts:      sweep.Options{Workers: procs, Methods: methods},
	})
	if err != nil {
		return "", err
	}
	if err := sweep.FirstError(results); err != nil {
		return "", err
	}
	return campaign.Digest(results), nil
}

func runFleetCampaign(e *env) (*outcome, error) {
	sz := fullFleet
	if e.quick {
		sz = quickFleet
	}
	o := &outcome{}
	jitter := rng.New(e.seed)
	newSpec := func() serve.CampaignSpec {
		return serve.CampaignSpec{
			Scale: serve.ScaleTiny, V0s: jitteredV0s(sz.v0s, jitter), Vths: sz.vths, Steps: sz.steps,
			Seed: e.seed, Methods: fleetMethods, Distributed: true,
		}
	}
	cells := sz.v0s * len(sz.vths) * len(fleetMethods)

	var f *fleet
	var warm *job
	var setupErr error
	err := o.timeSetup(func() (err error) {
		if f, err = startFleet(e, sz); err != nil {
			return err
		}
		// The warm-up job trains the model and ships it to every worker.
		spec := newSpec()
		if warm, err = f.runJob(spec); err != nil {
			return err
		}
		if err := warm.check(cells); err != nil {
			return err
		}
		want, err := localDigest(f, spec, e.procs)
		if err != nil {
			return fmt.Errorf("in-process reference campaign: %w", err)
		}
		if got := e.digest(warm.status.Digest); got != want {
			setupErr = fmt.Errorf("fleet digest %s, in-process campaign.Run of the same spec %s", got, want)
		}
		return nil
	})
	if f != nil {
		defer f.close()
	}
	if err != nil {
		return nil, err
	}

	var (
		jobs, traced []*job
		plainMS      []float64
		seen         = map[string]bool{warm.status.Digest: true}
		busy, execMS []float64
	)
	e.measure(o, func(i int) (float64, error) {
		// The route middleware records on odd ops only, so one run
		// yields the tracing overhead.
		on := f.routes != nil && i%2 == 1
		if on {
			id := e.tr.begin("serve.job", -1, i)
			f.routes.op.Store(int64(i))
			f.routes.job.Store(int64(id))
			defer func() {
				f.routes.job.Store(-1)
				e.tr.end(id)
			}()
		}
		j, err := f.runJob(newSpec())
		if err != nil {
			return 0, err
		}
		if err := j.check(cells); err != nil {
			return 0, err
		}
		if seen[j.status.Digest] {
			return 0, fmt.Errorf("job %s repeated an earlier job's digest: the jitter did not reach the cells", j.status.ID)
		}
		seen[j.status.Digest] = true
		jobs = append(jobs, j)
		if on {
			traced = append(traced, j)
		} else {
			plainMS = append(plainMS, j.totalMS)
		}
		return float64(cells), nil
	})
	if setupErr != nil {
		o.failRest(setupErr)
	}
	if e.tr == nil || len(jobs) == 0 {
		return o, nil
	}

	// Per-cell execution time comes from the daemon's journals.
	for _, j := range jobs {
		recs, err := campaign.LoadJournal(f.daemon.JournalPath(j.status.ID))
		if err != nil {
			return nil, err
		}
		var sumNS int64
		for _, key := range slices.Sorted(maps.Keys(recs)) {
			sumNS += recs[key].ElapsedNS
			execMS = append(execMS, float64(recs[key].ElapsedNS)/1e6)
		}
		busy = append(busy, float64(sumNS)/1e6/(float64(e.procs)*j.totalMS))
	}
	pluck := func(js []*job, f func(*job) float64) (xs []float64) {
		for _, j := range js {
			xs = append(xs, f(j))
		}
		return xs
	}
	total := func(j *job) float64 { return j.totalMS }
	var statusUS []float64
	for _, j := range jobs {
		statusUS = append(statusUS, j.statusUS...)
	}
	e.timings["serve.status_us"] = summarize(statusUS, "us")
	e.timings["dist.cell_exec_ms"] = summarize(execMS, "ms")
	o.set("serve.submit_ms", median(pluck(jobs, func(j *job) float64 { return j.submitMS })))
	o.set("serve.first_cell_ms", median(pluck(jobs, func(j *job) float64 { return j.firstCellMS })))
	o.set("serve.status_us", median(statusUS))
	o.set("serve.plan_train_ms", warm.totalMS-median(pluck(jobs, total)))
	o.set("dist.cell_exec_ms", median(execMS))
	o.set("dist.worker_busy_share", median(busy))
	o.set("dist.unaccounted_pct", 100*(1-median(busy)))
	o.set("trace.overhead_pct", overheadPct(pluck(traced, total), plainMS))

	calls := map[string]float64{}
	for _, route := range []string{"claim", "heartbeat", "complete", "bundle"} {
		e.spanMetric(o, "dist."+route+"_us", "dist."+route, time.Microsecond)
		calls[route] = float64(e.timings["dist."+route+"_us"].N)
	}
	perJob := float64(max(len(traced), 1))
	o.set("dist.claims", calls["claim"]/perJob)
	o.set("dist.heartbeats", calls["heartbeat"]/perJob)
	o.set("dist.completes", calls["complete"]/perJob)
	if calls["claim"] > 0 {
		// ClaimBatch 1: every granted claim ends in exactly one complete.
		o.set("dist.claim_useful_share", calls["complete"]/calls["claim"])
	}
	o.set("dist.bundle_fetches", calls["bundle"])
	o.set("dist.bundle_bytes", float64(f.routes.bundleBytes.Load()))

	return o, fleetCellLedger(f, o, newSpec(), e.procs)
}

// fleetCellLedger times one cell per method directly, and the model
// load and clone every DL cell on a worker pays, using the bundle the
// daemon trained.
func fleetCellLedger(f *fleet, o *outcome, spec serve.CampaignSpec, procs int) error {
	paths, err := filepath.Glob(filepath.Join(f.daemon.BundleDir(), "*.dlpic"))
	if err != nil {
		return err
	}
	if len(paths) != 1 {
		return fmt.Errorf("daemon bundle dir holds %d bundles, want the one shared model", len(paths))
	}
	if err := loadLedger(o, paths[0]); err != nil {
		return err
	}
	mlp, err := experiments.BundleMethod(experiments.MethodMLP, paths[0])
	if err != nil {
		return err
	}
	base := experiments.Options{Tiny: true}.BaseConfig()
	cellLedger(o, campaign.Spec{
		Scenarios: sweep.Grid(base, spec.V0s[:1], spec.Vths[:1], 1, spec.Steps, spec.Seed),
		Opts:      sweep.Options{Workers: procs, Methods: []sweep.MethodSpec{{Name: experiments.MethodTraditional}, mlp}},
	}, map[string]string{experiments.MethodTraditional: "sweep.cell_trad_ms", experiments.MethodMLP: "sweep.cell_mlp_ms"})
	return nil
}
