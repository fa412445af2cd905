// Command bench is the repository's one benchmark: five workloads from a
// single PIC run to a coordinator + worker fleet, each checked for
// correctness while it is timed. BENCHMARK.json at the repo root is its
// contract; README.md says why each workload and metric exists.
//
// One invocation runs one workload once:
//
//	go run -C tools/bench . --workload pic_dl --seed 7 --seconds 10 --trace 0
//
// and prints, as the last line of stdout, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). Everything generated (scenario seeds, v0 jitter,
// fixture seeds) derives from --seed; the program under test only sees
// generated inputs. Wall-clock and goroutines are fine here: tools/ is
// outside determlint's internal/ scope.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

// env is what a workload gets: its seed, its budget, and a scratch
// directory inside the checkout.
type env struct {
	seed    uint64
	procs   int
	seconds float64
	quick   bool
	tmp     string
	// tr is non-nil on a traced run only.
	tr *tracer
	// corrupt is the smoke test's fault injection: digests are mangled
	// before they are checked, which must surface as failed ops.
	corrupt bool
	// timings collects the full (median, tail, n) form of every latency
	// behind a metric, for the -out record.
	timings map[string]timing
}

// budget is how long the measured region runs.
func (e *env) budget() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// minOps is how many ops run whatever the budget: a traced run needs
// two, because workloads that trace every other op compare the halves.
func (e *env) minOps() int {
	if e.tr != nil {
		return 2
	}
	return 1
}

// outcome is what a workload hands back. setupS has one entry per
// set-up repetition (cheap set-ups repeat and report the median).
type outcome struct {
	setupS    []float64
	opMS      []float64
	work      float64
	wallS     float64
	allocMB   float64
	attempted int
	failed    int
	reasons   []string
	layer     map[string]float64
}

// fail counts n ops as failed-or-check-failing, keeping the first few
// reasons for the report.
func (o *outcome) fail(n int, err error) {
	o.failed += n
	if len(o.reasons) < 5 {
		o.reasons = append(o.reasons, err.Error())
	}
}

// failRest fails every op that has not failed already: a run-level
// check says the whole run measured a different program.
func (o *outcome) failRest(err error) { o.fail(o.attempted-o.failed, err) }

func (o *outcome) set(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

// measure drives op in a closed loop (one submitter, each call waits
// for its result) until the budget is spent, timing every op and
// charging its heap allocation. op returns the units of work it did; a
// returned error counts the op as failed.
func (e *env) measure(o *outcome, op func(i int) (float64, error)) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < e.minOps() || time.Since(start) < e.budget(); i++ {
		t0 := time.Now()
		work, err := op(i)
		o.opMS = append(o.opMS, msSince(t0))
		o.attempted++
		o.work += work
		if err != nil {
			o.fail(1, fmt.Errorf("op %d: %w", i, err))
		}
	}
	o.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
}

// spanMetric sets metric to the median length of the traced spans
// called name, keeps the full timing for the record, and returns the
// median.
func (e *env) spanMetric(o *outcome, metric, name string, unit time.Duration) float64 {
	xs := e.tr.durations(name, unit)
	e.timings[metric] = summarize(xs, map[time.Duration]string{time.Microsecond: "us", time.Millisecond: "ms"}[unit])
	o.set(metric, median(xs))
	return median(xs)
}

// digest passes a computed digest to its check; with corrupt set (the
// smoke test's fault injection) it mangles it first.
func (e *env) digest(d string) string {
	if e.corrupt {
		return d + "-corrupted"
	}
	return d
}

// repeatMedian times n calls of f and returns the median, in unit.
func repeatMedian(n int, unit time.Duration, f func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/float64(unit))
	}
	return median(xs), nil
}

// overheadPct is how much slower the traced ops of a run were than its
// untraced ones.
func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (median(traced) - median(plain)) / median(plain)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }

// timeSetup runs one set-up repetition and records its duration.
func (o *outcome) timeSetup(f func() error) error {
	t0 := time.Now()
	err := f()
	o.setupS = append(o.setupS, time.Since(t0).Seconds())
	return err
}

// prewarm keeps every processor busy for a second before anything is
// timed: a process started on an idle box runs its first second ~50 %
// slow here, which would land in setup_s or the first ops.
func prewarm(procs int, d time.Duration) {
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for t0 := time.Now(); time.Since(t0) < d; {
				for i := 0; i < 1e5; i++ {
					x = x*1.0000001 + 1e-9
				}
			}
			sink = x
		}()
	}
	wg.Wait()
}

// sink keeps measured results alive so the compiler cannot drop a call.
var sink float64

// header is the reproducibility record written with every result.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Claim      *string `json:"claim"`
}

func newHeader(e *env) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: e.procs, CPU: cpuModel(), Seed: e.seed, Seconds: e.seconds, Quick: e.quick,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		h.Commit = gitHead("../../.git")
	}
	return h
}

// gitHead resolves HEAD by reading the repository's files: go run does
// not stamp VCS information, and the checkout the driver runs in is not
// a repository at all (then the commit stays "unknown").
func gitHead(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if sum, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(sum))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sum, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sum
		}
	}
	return "unknown"
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout, in the driver's schema.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: everything -compare and a reader
// need to reproduce and judge the run.
type record struct {
	Header   header            `json:"header"`
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Ops      int               `json:"ops"`
	Result   result            `json:"result"`
	Timings  map[string]timing `json:"timings"`
	Reasons  []string          `json:"fail_reasons,omitempty"`
}

// runWorkload executes one workload and folds its outcome into the
// result the contract asks for.
func runWorkload(w *workloadDef, e *env) (result, *outcome, error) {
	o, err := w.run(e)
	if err != nil {
		return result{}, nil, err
	}
	if o.attempted < 1 {
		return result{}, nil, errors.New("workload attempted no op")
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if e.tr == nil {
		e.timings["op"] = summarize(o.opMS, "ms")
		e.timings["setup"] = summarize(o.setupS, "s")
		values := map[string]float64{
			"setup_s":         median(o.setupS),
			"op_p50_ms":       median(o.opMS),
			"work_per_s":      o.work / o.wallS,
			"alloc_mb_per_op": o.allocMB / float64(o.attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
	} else {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{o.layer[m.Name], m.Unit}
		}
		for name := range o.layer {
			if _, ok := res.Metrics[name]; !ok {
				return result{}, nil, fmt.Errorf("workload %s set unregistered metric %q", w.Name, name)
			}
		}
	}
	return res, o, nil
}

func run() error {
	var (
		names    = flag.String("workload", "all", "workloads to run, comma-separated, or all: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the measured region")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		procs    = flag.Int("procs", 0, "GOMAXPROCS and every pool / worker count (0 = min(nproc, 4))")
		out      = flag.String("out", "", "append the full record (header, result, timings) to this JSON-lines file")
		traceOut = flag.String("trace-out", "", "write the spans of a traced run to this JSON-lines file")
		quick    = flag.Bool("quick", false, "smoke-test sizes: tiny fixtures, sub-second budget (numbers mean nothing)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two -out files: bench -compare a.jsonl b.jsonl")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	var selected []*workloadDef
	if *names == "all" {
		*names = workloadNames()
	}
	for _, name := range strings.Split(*names, ",") {
		w := findWorkload(strings.TrimSpace(name))
		if w == nil {
			return fmt.Errorf("unknown -workload %q (have all, %s)", name, workloadNames())
		}
		selected = append(selected, w)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	nproc := runtime.NumCPU()
	if *procs == 0 {
		*procs = min(nproc, 4)
	}
	if *procs < 1 || *procs > nproc {
		return fmt.Errorf("-procs %d: this machine has %d processors; oversubscribed timings measure the scheduler", *procs, nproc)
	}
	runtime.GOMAXPROCS(*procs)
	if *quick && !flagSet("seconds") {
		*seconds = 0.2
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}

	// Scratch (journals, daemon data, bundle caches) stays inside the
	// checkout and is removed on the way out.
	tmp, err := os.MkdirTemp(".", ".benchtmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	if !*quick {
		prewarm(*procs, time.Second)
	}
	var tracers []*tracer
	for _, w := range selected {
		e := &env{seed: *seed, procs: *procs, seconds: *seconds, quick: *quick, tmp: filepath.Join(tmp, w.Name), timings: map[string]timing{}}
		if err := os.Mkdir(e.tmp, 0o755); err != nil {
			return err
		}
		if *trace == 1 {
			e.tr = newTracer()
			tracers = append(tracers, e.tr)
		}
		res, o, err := runWorkload(w, e)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rec := record{Header: newHeader(e), Workload: w.Name, Trace: e.tr != nil, Ops: o.attempted, Result: res, Timings: e.timings, Reasons: o.reasons}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				return err
			}
		}
		printReport(rec)
		// The result line: last on stdout when one workload runs, which
		// is how the driver calls this program.
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if *traceOut != "" {
		return writeTraces(*traceOut, tracers)
	}
	return nil
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints the header and every metric by name with its unit;
// the machine-readable result line follows it.
func printReport(rec record) {
	h := rec.Header
	fmt.Printf("# bench %s  seed=%d seconds=%g trace=%v quick=%v\n", rec.Workload, h.Seed, h.Seconds, rec.Trace, h.Quick)
	fmt.Printf("# commit=%s %s nproc=%d GOMAXPROCS=%d cpu=%q claim=null\n", h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.CPU)
	if w := findWorkload(rec.Workload); w != nil {
		fmt.Printf("# op = %s; work = %s\n", w.Op, w.Work)
	}
	fmt.Printf("# ops attempted=%d failed=%d\n", rec.Result.Attempted, rec.Result.Failed)
	for _, r := range rec.Reasons {
		fmt.Printf("# FAIL %s\n", r)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Printf("%-34s %14.6g %s\n", m.Name, rec.Result.Metrics[m.Name].Value, m.Unit)
	}
	for _, name := range slices.Sorted(maps.Keys(rec.Timings)) {
		t := rec.Timings[name]
		fmt.Printf("# timing %-28s n=%-6d p50=%.6g p%g=%.6g %s\n", name, t.N, t.P50, t.TailPct, t.Tail, t.Unit)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
