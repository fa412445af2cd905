package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"dlpic/internal/rng"
)

const tol = 1e-9

// DFTSlow is a direct O(n^2) reference transform: the oracle the
// FFT plans are tested against.
func DFTSlow(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum
	}
	return out
}

func approxEqual(a, b complex128, eps float64) bool {
	return cmplx.Abs(a-b) <= eps
}

func randomSignal(r *rng.Source, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestNewPlanRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, -1, -64} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) succeeded, want error", n)
		}
	}
}

func TestMustPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPlan(0) did not panic")
		}
	}()
	MustPlan(0)
}

func TestForwardMatchesDFTSlow(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 4, 8, 64, 128, 3, 5, 6, 7, 12, 15, 100} {
		p := MustPlan(n)
		x := randomSignal(r, n)
		want := DFTSlow(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		for k := range got {
			if !approxEqual(got[k], want[k], 1e-8*float64(n)) {
				t.Fatalf("n=%d k=%d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{1, 2, 16, 64, 1024, 3, 9, 17, 60, 101} {
		p := MustPlan(n)
		x := randomSignal(r, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		for i := range x {
			if !approxEqual(x[i], y[i], tol*float64(n)) {
				t.Fatalf("n=%d: roundtrip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

// Property: Parseval's identity sum|x|^2 == sum|X|^2 / N.
func TestParsevalProperty(t *testing.T) {
	r := rng.New(3)
	f := func(nRaw uint8) bool {
		n := int(nRaw%96) + 1
		p := MustPlan(n)
		x := randomSignal(r, n)
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		p.Forward(x)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-7*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity F(a*x + y) = a*F(x) + F(y).
func TestLinearityProperty(t *testing.T) {
	r := rng.New(4)
	f := func(nRaw uint8, aRe, aIm int8) bool {
		n := int(nRaw%64) + 1
		a := complex(float64(aRe)/16, float64(aIm)/16)
		p := MustPlan(n)
		x := randomSignal(r, n)
		y := randomSignal(r, n)
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = a*x[i] + y[i]
		}
		p.Forward(comb)
		p.Forward(x)
		p.Forward(y)
		for i := range comb {
			if !approxEqual(comb[i], a*x[i]+y[i], 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardKnownValues(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1]; DFT of [0,1,0,0] is [1,-i,-1,i].
	p := MustPlan(4)
	x := []complex128{0, 1, 0, 0}
	p.Forward(x)
	want := []complex128{1, complex(0, -1), -1, complex(0, 1)}
	for i := range x {
		if !approxEqual(x[i], want[i], tol) {
			t.Fatalf("k=%d: got %v want %v", i, x[i], want[i])
		}
	}
}

func TestForwardLengthMismatchPanics(t *testing.T) {
	p := MustPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestForwardRealMatchesComplex(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{8, 64, 20} {
		p := MustPlan(n)
		sig := make([]float64, n)
		for i := range sig {
			sig[i] = r.NormFloat64()
		}
		viaReal := make([]complex128, n)
		p.ForwardReal(viaReal, sig)
		viaComplex := make([]complex128, n)
		for i, v := range sig {
			viaComplex[i] = complex(v, 0)
		}
		p.Forward(viaComplex)
		for k := range viaReal {
			if !approxEqual(viaReal[k], viaComplex[k], tol*float64(n)) {
				t.Fatalf("n=%d k=%d mismatch", n, k)
			}
		}
	}
}

func TestInverseRealRoundTrip(t *testing.T) {
	r := rng.New(6)
	n := 64
	p := MustPlan(n)
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	spec := make([]complex128, n)
	p.ForwardReal(spec, sig)
	back := make([]float64, n)
	p.InverseReal(back, spec)
	for i := range sig {
		if math.Abs(sig[i]-back[i]) > 1e-9 {
			t.Fatalf("i=%d: %v vs %v", i, sig[i], back[i])
		}
	}
}

func TestAmplitudesRecoversSingleMode(t *testing.T) {
	n := 64
	p := MustPlan(n)
	for _, mode := range []int{1, 3, 7} {
		amp0 := 0.25
		x := make([]float64, n)
		for i := range x {
			x[i] = amp0 * math.Cos(2*math.Pi*float64(mode)*float64(i)/float64(n))
		}
		amp := make([]float64, n/2+1)
		Amplitudes(amp, x, p)
		for k := range amp {
			want := 0.0
			if k == mode {
				want = amp0
			}
			if math.Abs(amp[k]-want) > 1e-10 {
				t.Fatalf("mode=%d k=%d: amp %v want %v", mode, k, amp[k], want)
			}
		}
	}
}

func TestAmplitudesDCAndNyquist(t *testing.T) {
	n := 8
	p := MustPlan(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = 3.0 // pure DC
	}
	amp := make([]float64, n/2+1)
	Amplitudes(amp, x, p)
	if math.Abs(amp[0]-3.0) > tol {
		t.Fatalf("DC amplitude %v, want 3", amp[0])
	}
	// Nyquist mode (-1)^i.
	for i := range x {
		x[i] = 0.5 * math.Cos(math.Pi*float64(i))
	}
	Amplitudes(amp, x, p)
	if math.Abs(amp[n/2]-0.5) > tol {
		t.Fatalf("Nyquist amplitude %v, want 0.5", amp[n/2])
	}
}

func TestShiftTheoremProperty(t *testing.T) {
	// Circularly shifting the input multiplies spectrum k by exp(-2pi i k s / n).
	r := rng.New(7)
	f := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%60) + 2
		s := int(sRaw) % n
		p := MustPlan(n)
		x := randomSignal(r, n)
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[(i-s+n)%n]
		}
		p.Forward(x)
		p.Forward(shifted)
		for k := range x {
			ang := -2 * math.Pi * float64(k) * float64(s) / float64(n)
			want := x[k] * complex(math.Cos(ang), math.Sin(ang))
			if !approxEqual(shifted[k], want, 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForward64(b *testing.B) {
	p := MustPlan(64)
	x := randomSignal(rng.New(1), 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkForward1024(b *testing.B) {
	p := MustPlan(1024)
	x := randomSignal(rng.New(1), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkForwardBluestein100(b *testing.B) {
	p := MustPlan(100)
	x := randomSignal(rng.New(1), 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
