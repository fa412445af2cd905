package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1 // 99.9 % of 10000 is rank 9990, not 9991
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median averages the two middle samples of an even count, as Python's
// statistics.median does: the driver judges medians of ten runs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentile returns the highest of the reported percentiles that
// still has at least ten samples beyond it among n samples, or 50 when
// none does: a p99 over 200 samples is two points, not a tail.
func tailPercentile(n int) float64 {
	tail := 50.0
	for _, permille := range []int{900, 950, 990, 999} {
		rank := (permille*n + 999) / 1000 // nearest rank, in integers
		if n-rank >= 10 {
			tail = float64(permille) / 10
		}
	}
	return tail
}

// timing is how every latency is reported: the median, the highest
// percentile with enough samples beyond it, and the sample count.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	Unit    string  `json:"unit"`
}

func summarize(xs []float64, unit string) timing {
	t := timing{N: len(xs), P50: median(xs), TailPct: tailPercentile(len(xs)), Unit: unit}
	if t.Tail = t.P50; t.TailPct > 50 {
		t.Tail = percentile(xs, t.TailPct)
	}
	return t
}

// iqrShare is the distance between the first and third quartile of xs
// as a share of their median: the run-to-run spread -compare holds
// against a metric's bound. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (exclusive method), the driver's rule.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
