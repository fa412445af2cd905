package theory

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func cmplxAbs(c complex128) float64 { return cmplx.Abs(c) }

func TestMaxGrowthClosedForm(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0.2}
	k, gamma := ts.MaxGrowth()
	if math.Abs(k-math.Sqrt(3.0/8.0)/0.2) > 1e-12 {
		t.Errorf("k* = %v, want %v", k, math.Sqrt(3.0/8.0)/0.2)
	}
	if math.Abs(gamma-1/math.Sqrt(8)) > 1e-12 {
		t.Errorf("gamma* = %v, want %v", gamma, 1/math.Sqrt(8))
	}
}

func TestGrowthRateAtMaxMatchesClosedForm(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0.2}
	kStar, gStar := ts.MaxGrowth()
	if g := ts.GrowthRate(kStar); math.Abs(g-gStar) > 1e-12 {
		t.Fatalf("GrowthRate(k*) = %v, want %v", g, gStar)
	}
}

// The paper's configuration: L = 2*pi/3.06 so k1 = 3.06, v0 = 0.2, wp = 1
// gives K = 0.612 ~ sqrt(3/8); mode 1 is the most unstable with
// gamma ~ 0.3536.
func TestPaperConfiguration(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0.2}
	L := 2 * math.Pi / 3.06
	mode, gamma := ts.MostUnstableMode(L, 32)
	if mode != 1 {
		t.Fatalf("most unstable mode %d, want 1", mode)
	}
	if math.Abs(gamma-1/math.Sqrt(8)) > 2e-4 {
		t.Fatalf("gamma = %v, want ~%v", gamma, 1/math.Sqrt(8))
	}
}

// The cold-beam run of Fig. 6: v0 = 0.4 makes K = k1*v0 = 1.224 > 1 for
// every resolvable mode, so the system is linearly stable.
func TestColdBeamFig6Stable(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0.4}
	L := 2 * math.Pi / 3.06
	mode, gamma := ts.MostUnstableMode(L, 32)
	if mode != 0 || gamma != 0 {
		t.Fatalf("expected stability, got mode %d gamma %v", mode, gamma)
	}
	if ts.Unstable(3.06) {
		t.Fatal("k=3.06 should be stable at v0=0.4")
	}
}

func TestStabilityBoundary(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 1}
	// K = k v0 / wp = k here; unstable iff 0 < K < 1.
	if !ts.Unstable(0.5) {
		t.Error("K=0.5 should be unstable")
	}
	if ts.Unstable(1.0) {
		t.Error("K=1 should be marginally stable")
	}
	if ts.Unstable(1.5) {
		t.Error("K=1.5 should be stable")
	}
	if ts.Unstable(0) {
		t.Error("k=0 should be stable")
	}
	if g := ts.GrowthRate(1.5); g != 0 {
		t.Errorf("stable mode growth %v, want 0", g)
	}
}

// Property: the growth rate satisfies the dispersion relation. For any
// unstable K, substituting omega = i*gamma must solve
// 1 = (wp^2/2)[1/(ig-kv0)^2 + 1/(ig+kv0)^2].
func TestGrowthRateSatisfiesDispersionProperty(t *testing.T) {
	ts := TwoStream{Wp: 1.3, V0: 0.25}
	f := func(kFrac uint16) bool {
		// K in (0, 1): k = K*wp/v0.
		K := (float64(kFrac%999) + 1) / 1000
		k := K * ts.Wp / ts.V0
		g := ts.GrowthRate(k)
		if g <= 0 {
			return false
		}
		// D(ig) with complex arithmetic. The two beam terms individually
		// scale like 1/K^2, so the verification tolerance must scale with
		// their magnitude (catastrophic cancellation at small K).
		ig := complex(0, g)
		kv := complex(k*ts.V0, 0)
		wp2 := complex(ts.Wp*ts.Wp, 0)
		t1 := wp2 / 2 / ((ig - kv) * (ig - kv))
		t2 := wp2 / 2 / ((ig + kv) * (ig + kv))
		d := 1 - t1 - t2
		mag := 1 + cmplxAbs(t1) + cmplxAbs(t2)
		return math.Abs(real(d)) < 1e-11*mag && math.Abs(imag(d)) < 1e-11*mag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthRateScalesWithWp(t *testing.T) {
	// gamma(k; wp, v0) = wp * f(k v0 / wp): doubling wp and halving v0*k
	// appropriately rescales.
	ts1 := TwoStream{Wp: 1, V0: 0.2}
	ts2 := TwoStream{Wp: 2, V0: 0.2}
	k := 3.06
	g1 := ts1.GrowthRate(k)
	g2 := ts2.GrowthRate(2 * k) // same K
	if math.Abs(g2-2*g1) > 1e-12 {
		t.Fatalf("scaling broken: %v vs %v", g2, 2*g1)
	}
}

func TestGrowthRateWarmReducesToColdAtZeroVth(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0.2, Vth: 0}
	k := 3.06
	if g, want := ts.GrowthRateWarm(k), ts.GrowthRate(k); math.Abs(g-want) > 1e-9 {
		t.Fatalf("warm(vth=0) = %v, cold = %v", g, want)
	}
}

func TestGrowthRateWarmSmallCorrection(t *testing.T) {
	cold := TwoStream{Wp: 1, V0: 0.2}
	warm := TwoStream{Wp: 1, V0: 0.2, Vth: 0.025}
	k := 3.06
	gc := cold.GrowthRate(k)
	gw := warm.GrowthRateWarm(k)
	if gw <= 0 {
		t.Fatal("warm growth vanished for small vth")
	}
	// The thermal correction at vth/v0 = 0.125 shifts gamma by a modest
	// amount; it must stay within 25% of the cold value and the warm
	// rate should differ from cold (the correction is real).
	if math.Abs(gw-gc)/gc > 0.25 {
		t.Fatalf("warm correction too large: cold %v warm %v", gc, gw)
	}
	if gw == gc {
		t.Fatal("warm correction had no effect")
	}
}

func TestGrowthRateWarmSatisfiesWarmDispersion(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0.2, Vth: 0.02}
	k := 3.06
	g := ts.GrowthRateWarm(k)
	if g <= 0 {
		t.Fatal("expected unstable warm mode")
	}
	a := k*k*ts.V0*ts.V0 - g*g - 3*k*k*ts.Vth*ts.Vth
	b := 2 * g * k * ts.V0
	d := 1 - ts.Wp*ts.Wp*a/(a*a+b*b)
	if math.Abs(d) > 1e-6 {
		t.Fatalf("warm dispersion residual %v", d)
	}
}

func TestMostUnstableModeEdge(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0.2}
	if m, g := ts.MostUnstableMode(1, 0); m != 0 || g != 0 {
		t.Error("maxMode=0 should return (0,0)")
	}
}

func TestZeroV0DegenerateCase(t *testing.T) {
	ts := TwoStream{Wp: 1, V0: 0}
	if k, g := ts.MaxGrowth(); k != 0 || g != 0 {
		t.Errorf("v0=0 MaxGrowth = (%v,%v), want (0,0)", k, g)
	}
	// K = 0 exactly: two beams at rest are a stable cold plasma.
	if ts.Unstable(1.0) {
		t.Error("v0=0 should be stable at any k")
	}
}
