package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the registry in metrics.go")

const contractPath = "../../BENCHMARK.json"

// contract mirrors BENCHMARK.json's schema.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// registryContract is BENCHMARK.json as metrics.go defines it.
func registryContract() contract {
	c := contract{
		Command:    []string{"go", "run", "-C", "tools/bench", "dlpic/tools/bench"},
		Paths:      []string{"tools/bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{m.Name, m.Unit, m.Better, nil})
	}
	return c
}

// TestContract holds BENCHMARK.json to the registry and to the limits
// the driver refuses a file for.
func TestContract(t *testing.T) {
	want := registryContract()
	if *update {
		buf, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(contractPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(buf))
	}
	var got contract
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry in metrics.go; run go test -run TestContract -update")
	}

	if !reflect.DeepEqual(got.Paths, []string{"tools/bench"}) {
		t.Errorf("paths = %v, want only tools/bench", got.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range got.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(got.EndToEnd), len(got.PerLayer))
	}
	setup := false
	for _, m := range append(append([]contractMetric(nil), got.EndToEnd...), got.PerLayer...) {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
}

func quickEnv(t *testing.T, traced bool) *env {
	e := &env{seed: 7, procs: 2, seconds: 0.05, quick: true, tmp: t.TempDir(), timings: map[string]timing{}}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// TestWorkloads runs every workload at smoke-test size, untraced and
// traced: no op may fail, the emitted metric set must be exactly the
// contract's, end-to-end values are never zero, and each workload
// leaves the layers it bypasses at zero.
func TestWorkloads(t *testing.T) {
	// Layers a workload must exercise (> 0) and must not touch (== 0).
	predict := map[string]struct{ moves, still []string }{
		"pic_trad":       {[]string{"pic.step_us", "interp.deposit_us", "poisson.solve_us"}, []string{"nn.predict1_us", "phasespace.bin_us", "nn.epoch_p50_ms", "dist.claims"}},
		"pic_dl":         {[]string{"pic.step_us", "phasespace.bin_us", "nn.predict1_us", "core.dl_over_trad_step"}, []string{"interp.deposit_us", "poisson.solve_us", "dist.claims"}},
		"train_mlp":      {[]string{"nn.epoch_p50_ms", "tensor.gemm_tn_ms", "dataset.samples"}, []string{"pic.step_us", "dist.claims", "campaign.resume_ms"}},
		"campaign_local": {[]string{"sweep.cell_mlp_ms", "campaign.journal_append_us", "campaign.resume_ms", "batch.requests"}, []string{"dist.claims", "dist.complete_us", "serve.submit_ms", "pic.step_us"}},
		"fleet_campaign": {[]string{"dist.claims", "dist.complete_us", "serve.first_cell_ms", "dist.bundle_bytes"}, []string{"campaign.journal_append_us", "batch.requests", "pic.step_us"}},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := quickEnv(t, traced)
			res, o, err := runWorkload(&w, e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, res.Failed, res.Attempted, o.reasons)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, contract lists %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.Name, traced, m.Name, v.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, m.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			for _, name := range predict[w.Name].moves {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s: layer metric %s = %g, workload should exercise it", w.Name, name, res.Metrics[name].Value)
				}
			}
			for _, name := range predict[w.Name].still {
				if res.Metrics[name].Value != 0 {
					t.Errorf("%s: layer metric %s = %g, workload should bypass it", w.Name, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestCorruptDigest injects a wrong digest and expects failed ops: a
// check that cannot fail is not a check.
func TestCorruptDigest(t *testing.T) {
	for _, name := range []string{"campaign_local", "fleet_campaign"} {
		e := quickEnv(t, false)
		e.corrupt = true
		res, _, err := runWorkload(findWorkload(name), e)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: corrupted digest went unnoticed (failed=%d correct=%v)", name, res.Failed, res.Correct)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	s := summarize(xs, "us")
	if s.P50 != 500.5 || s.TailPct != 99 || s.Tail != 990 || s.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	// Ten samples lie beyond the reported tail.
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the reported tail, want 10", beyond)
	}
}

func TestIQRShare(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(xs), 5.5/5.5; got != want {
		t.Errorf("iqrShare(1..10) = %g, want %g", got, want)
	}
}

// TestCompare writes two synthetic -out files and checks each verdict
// and the exit status.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, opMS ...float64) string {
		path := filepath.Join(dir, file)
		for _, v := range opMS {
			rec := record{Workload: "pic_trad", Result: result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{
				"setup_s": {1, "s"}, "op_p50_ms": {v, "ms"}, "work_per_s": {1000 / v, "1/s"}, "alloc_mb_per_op": {2, "MB"},
			}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := write("steady.jsonl", 100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99)
	slower := write("slower.jsonl", 120, 121, 119, 120, 120.5, 119.5, 120, 120, 121, 119)
	noisy := write("noisy.jsonl", 80, 125, 90, 115, 85, 120, 100, 104, 96, 110)

	var out bytes.Buffer
	if err := compareFiles(&out, steady, steady); err != nil {
		t.Errorf("a file against itself: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "unresolved") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("steady vs steady should be unchanged throughout:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, steady, slower); err == nil || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 20 %% slower op must regress and exit non-zero (err=%v):\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, steady, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("equal medians with a spread above the bound must read unresolved (err=%v):\n%s", err, out.String())
	}
}
