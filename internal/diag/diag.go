// Package diag computes and records the physics diagnostics the paper
// reports: total energy (kinetic + field), total momentum, and the
// Fourier amplitude of individual field modes (E1 in Fig. 4), plus the
// least-squares growth-rate fit used to compare against linear theory.
package diag

import (
	"fmt"
	"io"
	"math"

	"dlpic/internal/fft"
	"dlpic/internal/grid"
)

// Sample is one time level of recorded diagnostics.
type Sample struct {
	Step    int
	Time    float64
	Kinetic float64 // time-centered kinetic energy
	Field   float64 // electrostatic field energy eps0/2 * integral(E^2)
	Total   float64 // Kinetic + Field
	// Momentum is the time-centered total particle momentum.
	Momentum float64
	// ModeAmp is the amplitude of the monitored field mode (|E_mode|).
	ModeAmp float64
}

// FieldEnergy returns eps0/2 * integral(E^2 dx) over the periodic box.
func FieldEnergy(g *grid.Grid, e []float64, eps0 float64) float64 {
	if len(e) != g.N() {
		panic(fmt.Sprintf("diag: FieldEnergy length %d, grid %d", len(e), g.N()))
	}
	var s float64
	for _, v := range e {
		s += v * v
	}
	return 0.5 * eps0 * s * g.Dx()
}

// ModeAmplitude returns the amplitude of Fourier mode m of the grid field
// e, using the single-sided normalization (amplitude of the sinusoid).
// plan must have the grid length.
func ModeAmplitude(plan *fft.Plan, e []float64, m int) float64 {
	n := plan.Len()
	if len(e) != n {
		panic(fmt.Sprintf("diag: ModeAmplitude length %d, plan %d", len(e), n))
	}
	if m < 0 || m > n/2 {
		panic(fmt.Sprintf("diag: mode %d out of range [0,%d]", m, n/2))
	}
	amp := make([]float64, n/2+1)
	fft.Amplitudes(amp, e, plan)
	return amp[m]
}

// Recorder accumulates Samples over a run.
type Recorder struct {
	Samples []Sample
}

// Add appends a sample.
func (r *Recorder) Add(s Sample) { r.Samples = append(r.Samples, s) }

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return len(r.Samples) }

// Times returns the recorded time axis.
func (r *Recorder) Times() []float64 {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.Time
	}
	return out
}

// Series extracts a named series: "kinetic", "field", "total",
// "momentum", "mode".
func (r *Recorder) Series(name string) ([]float64, error) {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		switch name {
		case "kinetic":
			out[i] = s.Kinetic
		case "field":
			out[i] = s.Field
		case "total":
			out[i] = s.Total
		case "momentum":
			out[i] = s.Momentum
		case "mode":
			out[i] = s.ModeAmp
		default:
			return nil, fmt.Errorf("diag: unknown series %q", name)
		}
	}
	return out, nil
}

// MaxRelativeVariation returns max |x - x0| / |x0| over the series, where
// x0 is the first element — the paper's "maximum variation of
// approximately 2%" metric for total energy.
func MaxRelativeVariation(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	x0 := series[0]
	if x0 == 0 {
		return math.Inf(1)
	}
	var worst float64
	for _, v := range series {
		if d := math.Abs(v-x0) / math.Abs(x0); d > worst {
			worst = d
		}
	}
	return worst
}

// Drift returns series[end] - series[0]; used for the momentum-drift
// comparison of Fig. 5/6.
func Drift(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	return series[len(series)-1] - series[0]
}

// WriteCSV emits the recorded samples as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,time,kinetic,field,total,momentum,mode_amp"); err != nil {
		return err
	}
	for _, s := range r.Samples {
		if _, err := fmt.Fprintf(w, "%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
			s.Step, s.Time, s.Kinetic, s.Field, s.Total, s.Momentum, s.ModeAmp); err != nil {
			return err
		}
	}
	return nil
}

// GrowthFit is the result of a log-linear least-squares fit of a mode
// amplitude over a time window: amp(t) ~ exp(gamma t + c).
type GrowthFit struct {
	Gamma     float64 // fitted growth rate
	Intercept float64 // fitted log-amplitude intercept
	R2        float64 // coefficient of determination of the log-linear fit
	N         int     // points used
	T0, T1    float64 // window actually used
}

// FitGrowthRate fits log(amp) = gamma*t + c over samples with
// t in [t0, t1] and amp > 0. It needs at least two usable points.
func FitGrowthRate(times, amps []float64, t0, t1 float64) (GrowthFit, error) {
	if len(times) != len(amps) {
		return GrowthFit{}, fmt.Errorf("diag: growth fit length mismatch %d vs %d", len(times), len(amps))
	}
	var xs, ys []float64
	for i, t := range times {
		if t < t0 || t > t1 || !(amps[i] > 0) {
			continue
		}
		xs = append(xs, t)
		ys = append(ys, math.Log(amps[i]))
	}
	if len(xs) < 2 {
		return GrowthFit{}, fmt.Errorf("diag: growth fit needs >= 2 points in [%v,%v], have %d", t0, t1, len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return GrowthFit{}, fmt.Errorf("diag: degenerate time window for growth fit")
	}
	gamma := (n*sxy - sx*sy) / den
	c := (sy - gamma*sx) / n
	// R^2.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := gamma*xs[i] + c
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return GrowthFit{Gamma: gamma, Intercept: c, R2: r2, N: len(xs), T0: xs[0], T1: xs[len(xs)-1]}, nil
}

// AutoGrowthWindow picks a fitting window for a noisy exponential-growth
// series: it finds the time at which the amplitude first exceeds
// lowFrac * peak and the time it first exceeds highFrac * peak, which
// brackets the clean linear-growth phase between the noise floor and
// saturation. Returns an error when the series never grows.
func AutoGrowthWindow(times, amps []float64, lowFrac, highFrac float64) (t0, t1 float64, err error) {
	if len(times) != len(amps) || len(times) < 4 {
		return 0, 0, fmt.Errorf("diag: auto window needs >= 4 matched points")
	}
	if !(lowFrac > 0 && lowFrac < highFrac && highFrac <= 1) {
		return 0, 0, fmt.Errorf("diag: invalid window fractions %v, %v", lowFrac, highFrac)
	}
	peak := 0.0
	for _, a := range amps {
		if a > peak {
			peak = a
		}
	}
	if peak <= 0 {
		return 0, 0, fmt.Errorf("diag: series never grows above zero")
	}
	lo, hi := lowFrac*peak, highFrac*peak
	t0, t1 = math.NaN(), math.NaN()
	for i, a := range amps {
		if math.IsNaN(t0) && a >= lo {
			t0 = times[i]
		}
		if math.IsNaN(t1) && a >= hi {
			t1 = times[i]
			break
		}
	}
	if math.IsNaN(t0) || math.IsNaN(t1) || t1 <= t0 {
		return 0, 0, fmt.Errorf("diag: could not bracket a growth phase")
	}
	return t0, t1, nil
}

// VelocitySpread returns the standard deviation of v around each beam for
// a two-beam population split by sign of v: it is the cold-beam
// "heating" metric used in the Fig. 6 analysis. Particles with v >= 0
// form one beam, v < 0 the other; the returned value is the RMS of the
// two per-beam standard deviations.
func VelocitySpread(v []float64) float64 {
	var pos, neg []float64
	for _, x := range v {
		if x >= 0 {
			pos = append(pos, x)
		} else {
			neg = append(neg, x)
		}
	}
	sd := func(xs []float64) float64 {
		if len(xs) < 2 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		m := s / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		return ss / float64(len(xs))
	}
	return math.Sqrt((sd(pos) + sd(neg)) / 2)
}
