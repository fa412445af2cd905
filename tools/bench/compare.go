package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is the untraced records of one -out file, by workload.
type runSet map[string][]record

func loadRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			set[rec.Workload] = append(set[rec.Workload], rec)
		}
	}
	return set, sc.Err()
}

func (s runSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, rec := range s[workload] {
		xs = append(xs, rec.Result.Metrics[metric].Value)
	}
	return xs
}

func (s runSet) failShare(workload string) float64 {
	attempted, failed := 0, 0
	for _, rec := range s[workload] {
		attempted += rec.Result.Attempted
		failed += rec.Result.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict judges one workload x metric pair: b against a. change is
// signed so that positive means b is worse.
func verdict(m metricDef, a, b []float64) (change, spread float64, word string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	if m.Better == "higher" {
		change = -change
	}
	spread = max(iqrShare(a), iqrShare(b))
	switch {
	case change > m.Bound:
		word = "REGRESSED"
	case change < -m.Bound:
		word = "improved"
	case spread > m.Bound:
		// Too noisy to call: not evidence of "no regression".
		word = "unresolved"
	default:
		word = "unchanged"
	}
	return change, spread, word
}

// compareFiles prints, per workload x end-to-end metric, both medians,
// the relative difference and the bound. It returns an error (non-zero
// exit) when any pair differs beyond its bound or more ops fail in b.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	beyond := 0
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "b worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		if len(a[wl.Name]) == 0 || len(b[wl.Name]) == 0 {
			continue
		}
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			change, spread, word := verdict(m, va, vb)
			if word == "REGRESSED" || word == "improved" {
				beyond++
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, median(va), median(vb), 100*change, 100*spread, 100*m.Bound, word, len(va), len(vb))
		}
		fa, fb := a.failShare(wl.Name), b.failShare(wl.Name)
		word := "unchanged"
		if fb > fa {
			word = "REGRESSED"
			beyond++
		}
		fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %38s\n", wl.Name, "fail_share", fa, fb, word)
	}
	if beyond > 0 {
		return fmt.Errorf("%d workload x metric pairs differ beyond their bound", beyond)
	}
	return nil
}
