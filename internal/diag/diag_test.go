package diag

import (
	"math"
	"strings"
	"testing"

	"dlpic/internal/fft"
	"dlpic/internal/grid"
	"dlpic/internal/rng"
)

func TestFieldEnergySinusoid(t *testing.T) {
	g := grid.MustNew(128, 2.0)
	e := make([]float64, g.N())
	amp := 0.3
	for i := range e {
		e[i] = amp * math.Sin(2*math.Pi*g.X(i)/g.Length())
	}
	// eps0/2 * integral(amp^2 sin^2) = eps0/2 * amp^2 * L/2.
	want := 0.5 * 1.0 * amp * amp * g.Length() / 2
	if got := FieldEnergy(g, e, 1.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("field energy %v, want %v", got, want)
	}
	if got := FieldEnergy(g, e, 3.0); math.Abs(got-3*want) > 1e-12 {
		t.Fatalf("eps0 scaling broken: %v", got)
	}
}

func TestModeAmplitude(t *testing.T) {
	n := 64
	g := grid.MustNew(n, 2.0)
	plan := fft.MustPlan(n)
	e := make([]float64, n)
	for i := range e {
		x := g.X(i)
		e[i] = 0.5*math.Cos(2*math.Pi*x/g.Length()) + 0.2*math.Sin(2*math.Pi*3*x/g.Length())
	}
	if a := ModeAmplitude(plan, e, 1); math.Abs(a-0.5) > 1e-12 {
		t.Errorf("mode 1 amplitude %v, want 0.5", a)
	}
	if a := ModeAmplitude(plan, e, 3); math.Abs(a-0.2) > 1e-12 {
		t.Errorf("mode 3 amplitude %v, want 0.2", a)
	}
	if a := ModeAmplitude(plan, e, 2); a > 1e-12 {
		t.Errorf("mode 2 amplitude %v, want 0", a)
	}
}

func TestModeAmplitudePanicsOutOfRange(t *testing.T) {
	plan := fft.MustPlan(16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range mode")
		}
	}()
	ModeAmplitude(plan, make([]float64, 16), 9)
}

func TestRecorderSeries(t *testing.T) {
	var r Recorder
	for i := 0; i < 5; i++ {
		r.Add(Sample{
			Step: i, Time: float64(i) * 0.2,
			Kinetic: float64(i), Field: 2 * float64(i), Total: 3 * float64(i),
			Momentum: -float64(i), ModeAmp: float64(i * i),
		})
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d", r.Len())
	}
	kin, err := r.Series("kinetic")
	if err != nil || kin[3] != 3 {
		t.Fatalf("kinetic series: %v %v", kin, err)
	}
	mom, err := r.Series("momentum")
	if err != nil || mom[4] != -4 {
		t.Fatalf("momentum series: %v %v", mom, err)
	}
	if _, err := r.Series("bogus"); err == nil {
		t.Fatal("unknown series should error")
	}
	times := r.Times()
	if times[2] != 0.4 {
		t.Fatalf("times = %v", times)
	}
}

func TestMaxRelativeVariation(t *testing.T) {
	if v := MaxRelativeVariation([]float64{100, 101, 99, 102}); math.Abs(v-0.02) > 1e-12 {
		t.Errorf("variation %v, want 0.02", v)
	}
	if v := MaxRelativeVariation(nil); v != 0 {
		t.Errorf("empty variation %v, want 0", v)
	}
	if v := MaxRelativeVariation([]float64{0, 1}); !math.IsInf(v, 1) {
		t.Errorf("zero-start variation %v, want +Inf", v)
	}
}

func TestDrift(t *testing.T) {
	if d := Drift([]float64{5, 7, 3}); d != -2 {
		t.Errorf("drift %v, want -2", d)
	}
	if d := Drift(nil); d != 0 {
		t.Errorf("empty drift %v, want 0", d)
	}
}

func TestWriteCSV(t *testing.T) {
	var r Recorder
	r.Add(Sample{Step: 0, Time: 0, Kinetic: 1, Field: 2, Total: 3, Momentum: 4, ModeAmp: 5})
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "step,time,kinetic") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "0,0,1,2,3,4,5") {
		t.Fatalf("missing row: %q", out)
	}
}

func TestFitGrowthRateExactExponential(t *testing.T) {
	gamma, c := 0.35, -6.0
	var times, amps []float64
	for i := 0; i < 100; i++ {
		tt := float64(i) * 0.2
		times = append(times, tt)
		amps = append(amps, math.Exp(gamma*tt+c))
	}
	fit, err := FitGrowthRate(times, amps, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gamma-gamma) > 1e-10 {
		t.Errorf("gamma %v, want %v", fit.Gamma, gamma)
	}
	if math.Abs(fit.Intercept-c) > 1e-9 {
		t.Errorf("intercept %v, want %v", fit.Intercept, c)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %v, want ~1", fit.R2)
	}
}

func TestFitGrowthRateNoisy(t *testing.T) {
	r := rng.New(1)
	gamma := 0.35
	var times, amps []float64
	for i := 0; i < 200; i++ {
		tt := float64(i) * 0.2
		times = append(times, tt)
		amps = append(amps, math.Exp(gamma*tt-8)*(1+0.05*r.NormFloat64()))
	}
	fit, err := FitGrowthRate(times, amps, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gamma-gamma) > 0.02 {
		t.Errorf("gamma %v, want ~%v", fit.Gamma, gamma)
	}
}

func TestFitGrowthRateErrors(t *testing.T) {
	if _, err := FitGrowthRate([]float64{1}, []float64{1, 2}, 0, 1); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitGrowthRate([]float64{1, 2}, []float64{1, 2}, 5, 6); err == nil {
		t.Error("empty window should fail")
	}
	// Negative amplitudes are skipped; all-negative -> too few points.
	if _, err := FitGrowthRate([]float64{1, 2, 3}, []float64{-1, -1, -1}, 0, 4); err == nil {
		t.Error("all non-positive amplitudes should fail")
	}
}

func TestAutoGrowthWindow(t *testing.T) {
	// Synthetic instability: noise floor, exponential rise, saturation.
	var times, amps []float64
	for i := 0; i < 300; i++ {
		tt := float64(i) * 0.2
		val := 1e-5 + math.Min(math.Exp(0.35*(tt-20)), 1.0)*0.1
		times = append(times, tt)
		amps = append(amps, val)
	}
	t0, t1, err := AutoGrowthWindow(times, amps, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(t0 > 0 && t1 > t0) {
		t.Fatalf("window [%v,%v] not increasing", t0, t1)
	}
	fit, err := FitGrowthRate(times, amps, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gamma-0.35) > 0.05 {
		t.Errorf("auto-window gamma %v, want ~0.35", fit.Gamma)
	}
}

func TestAutoGrowthWindowErrors(t *testing.T) {
	if _, _, err := AutoGrowthWindow([]float64{1, 2}, []float64{1, 2}, 0.01, 0.5); err == nil {
		t.Error("too-short series should fail")
	}
	times := []float64{1, 2, 3, 4}
	if _, _, err := AutoGrowthWindow(times, []float64{0, 0, 0, 0}, 0.01, 0.5); err == nil {
		t.Error("flat-zero series should fail")
	}
	if _, _, err := AutoGrowthWindow(times, []float64{1, 1, 1, 1}, 0.5, 0.01); err == nil {
		t.Error("inverted fractions should fail")
	}
}

func TestVelocitySpread(t *testing.T) {
	// Two cold beams: zero spread.
	v := []float64{0.4, 0.4, 0.4, -0.4, -0.4, -0.4}
	if s := VelocitySpread(v); s > 1e-12 {
		t.Errorf("cold beams spread %v, want 0", s)
	}
	// Symmetric spread of +-0.01 around each beam.
	v = []float64{0.39, 0.41, -0.39, -0.41}
	if s := VelocitySpread(v); math.Abs(s-0.01) > 1e-12 {
		t.Errorf("spread %v, want 0.01", s)
	}
}
