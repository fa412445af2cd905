package particle

import (
	"math"
	"testing"

	"dlpic/internal/rng"
)

func baseOpts() TwoStreamOpts {
	return TwoStreamOpts{
		N: 2000, L: 2 * math.Pi / 3.06, V0: 0.2, Vth: 0.01,
		Charge: -1e-4, Mass: 1e-4,
	}
}

func TestLoadTwoStreamValidation(t *testing.T) {
	cases := []func(*TwoStreamOpts){
		func(o *TwoStreamOpts) { o.N = 0 },
		func(o *TwoStreamOpts) { o.N = 3 },
		func(o *TwoStreamOpts) { o.N = -2 },
		func(o *TwoStreamOpts) { o.L = 0 },
		func(o *TwoStreamOpts) { o.Vth = -0.1 },
		func(o *TwoStreamOpts) { o.Mass = 0 },
		func(o *TwoStreamOpts) { o.PerturbAmp = 0.1; o.PerturbMode = 0 },
	}
	for i, mutate := range cases {
		o := baseOpts()
		mutate(&o)
		if _, err := LoadTwoStream(o, rng.New(1)); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestLoadTwoStreamBasicProperties(t *testing.T) {
	o := baseOpts()
	p, err := LoadTwoStream(o, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != o.N {
		t.Fatalf("N = %d, want %d", p.N(), o.N)
	}
	if p.QOverM != o.Charge/o.Mass {
		t.Fatalf("QOverM = %v", p.QOverM)
	}
	for i, x := range p.X {
		if x < 0 || x >= o.L {
			t.Fatalf("particle %d at %v outside [0,%v)", i, x, o.L)
		}
	}
	// First half drifts positive, second half negative.
	for i := 0; i < o.N/2; i++ {
		if p.V[i] < 0 {
			t.Fatalf("beam-1 particle %d has v=%v < 0", i, p.V[i])
		}
	}
	for i := o.N / 2; i < o.N; i++ {
		if p.V[i] > 0 {
			t.Fatalf("beam-2 particle %d has v=%v > 0", i, p.V[i])
		}
	}
}

func TestLoadTwoStreamBeamStatistics(t *testing.T) {
	o := baseOpts()
	o.N = 200000
	o.Vth = 0.02
	p, err := LoadTwoStream(o, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	half := o.N / 2
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	std := func(v []float64, m float64) float64 {
		var s float64
		for _, x := range v {
			s += (x - m) * (x - m)
		}
		return math.Sqrt(s / float64(len(v)))
	}
	m1 := mean(p.V[:half])
	m2 := mean(p.V[half:])
	if math.Abs(m1-o.V0) > 3*o.Vth/math.Sqrt(float64(half))*5 {
		t.Errorf("beam 1 mean %v, want %v", m1, o.V0)
	}
	if math.Abs(m2+o.V0) > 3*o.Vth/math.Sqrt(float64(half))*5 {
		t.Errorf("beam 2 mean %v, want %v", m2, -o.V0)
	}
	s1 := std(p.V[:half], m1)
	if math.Abs(s1-o.Vth) > 0.02*o.Vth {
		t.Errorf("beam 1 spread %v, want %v", s1, o.Vth)
	}
}

func TestLoadTwoStreamColdBeamExactVelocities(t *testing.T) {
	o := baseOpts()
	o.Vth = 0
	o.V0 = 0.4
	p, err := LoadTwoStream(o, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p.V {
		want := 0.4
		if i >= o.N/2 {
			want = -0.4
		}
		if v != want {
			t.Fatalf("particle %d: v=%v want %v", i, v, want)
		}
	}
}

func TestLoadTwoStreamQuietIsDeterministicAndUniform(t *testing.T) {
	o := baseOpts()
	o.Quiet = true
	o.Vth = 0
	a, err := LoadTwoStream(o, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadTwoStream(o, rng.New(999)) // different seed: quiet must not care
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("quiet start depends on seed at particle %d", i)
		}
	}
	// Quiet positions are evenly spaced within each beam.
	half := o.N / 2
	gap := a.X[1] - a.X[0]
	for i := 1; i < half-1; i++ {
		if math.Abs((a.X[i+1]-a.X[i])-gap) > 1e-12 {
			t.Fatalf("quiet spacing not uniform at %d", i)
		}
	}
}

func TestLoadTwoStreamPerturbationSeedsChosenMode(t *testing.T) {
	o := baseOpts()
	o.Quiet = true
	o.Vth = 0
	o.PerturbAmp = 1e-3 * o.L
	o.PerturbMode = 1
	p, err := LoadTwoStream(o, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	o2 := o
	o2.PerturbAmp = 0
	q, err := LoadTwoStream(o2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Displacement matches the seeded sine at the unperturbed positions.
	k := 2 * math.Pi / o.L
	for i := range p.X {
		want := o.PerturbAmp * math.Sin(k*q.X[i])
		got := p.X[i] - q.X[i]
		// Account for wrap-around.
		if got > o.L/2 {
			got -= o.L
		}
		if got < -o.L/2 {
			got += o.L
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("particle %d displaced %v, want %v", i, got, want)
		}
	}
}
