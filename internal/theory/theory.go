// Package theory implements the linear theory of the two-stream
// instability used to validate the simulations (the "Linear Theory" slope
// of the paper's Fig. 4).
//
// For two symmetric cold electron beams drifting at +-v0 over a fixed
// neutralizing background, the electrostatic dispersion relation is
//
//	1 = (wp^2/2) [ 1/(w - k v0)^2 + 1/(w + k v0)^2 ],
//
// where wp is the total plasma frequency. Substituting u = (w/wp)^2 and
// K = k v0 / wp yields the quadratic
//
//	u^2 - (2K^2 + 1) u + K^4 - K^2 = 0,
//
// whose lower root is negative for K < 1, giving a purely growing mode
// with rate gamma = wp sqrt(-u). The growth rate is maximal at
// K = sqrt(3/8) with gamma_max = wp / sqrt(8) ~= 0.3536 wp — precisely
// the configuration of the paper (k = 3.06, v0 = 0.2, wp = 1 gives
// K = 0.612 ~= sqrt(3/8)).
package theory

import "math"

// TwoStream describes two symmetric cold/warm counter-streaming beams.
type TwoStream struct {
	// Wp is the total plasma frequency of the two beams combined.
	Wp float64
	// V0 is the beam drift speed (each beam at +-V0).
	V0 float64
	// Vth is the per-beam thermal spread; it enters only through the
	// warm fluid correction (3 k^2 vth^2 pressure term).
	Vth float64
}

// GrowthRate returns the linear growth rate gamma(k) of the cold
// two-stream mode at wavenumber k. It returns 0 for stable wavenumbers.
func (ts TwoStream) GrowthRate(k float64) float64 {
	if ts.Wp <= 0 || k == 0 {
		return 0
	}
	K := k * ts.V0 / ts.Wp
	u := uMinus(K)
	if u >= 0 {
		return 0
	}
	return ts.Wp * math.Sqrt(-u)
}

// uMinus returns the lower root of u^2 - (2K^2+1)u + K^4 - K^2 = 0.
func uMinus(K float64) float64 {
	b := 2*K*K + 1
	disc := 8*K*K + 1
	return (b - math.Sqrt(disc)) / 2
}

// Unstable reports whether wavenumber k is linearly unstable.
func (ts TwoStream) Unstable(k float64) bool {
	if ts.Wp <= 0 || k == 0 {
		return false
	}
	K := math.Abs(k * ts.V0 / ts.Wp)
	return K < 1 && K > 0
}

// MaxGrowth returns the wavenumber and growth rate of the fastest-growing
// mode: k* = sqrt(3/8) wp / v0, gamma* = wp / sqrt(8).
func (ts TwoStream) MaxGrowth() (k, gamma float64) {
	if ts.V0 == 0 || ts.Wp <= 0 {
		return 0, 0
	}
	k = math.Sqrt(3.0/8.0) * ts.Wp / math.Abs(ts.V0)
	gamma = ts.Wp / math.Sqrt(8)
	return k, gamma
}

// MostUnstableMode returns the integer mode number m (k_m = 2 pi m / L)
// with the largest growth rate on a periodic box of length L, along with
// that growth rate. Returns (0, 0) when every resolvable mode is stable.
func (ts TwoStream) MostUnstableMode(length float64, maxMode int) (mode int, gamma float64) {
	if maxMode < 1 {
		return 0, 0
	}
	for m := 1; m <= maxMode; m++ {
		k := 2 * math.Pi * float64(m) / length
		g := ts.GrowthRate(k)
		if g > gamma {
			gamma = g
			mode = m
		}
	}
	return mode, gamma
}

// GrowthRateWarm returns the growth rate including the lowest-order warm
// fluid correction: each beam acquires an effective pressure term so the
// beam response shifts from 1/(w -+ k v0)^2 to 1/((w -+ k v0)^2 - 3 k^2
// vth^2). The root is found numerically on the imaginary axis (the
// symmetric mode is purely growing), bisecting the dispersion function
//
//	D(i g) = 1 - (wp^2/2) [ 1/((ig - kv0)^2 - 3k^2vth^2) + (v0 -> -v0) ].
//
// For Vth == 0 it agrees with GrowthRate to solver tolerance.
func (ts TwoStream) GrowthRateWarm(k float64) float64 {
	if !ts.Unstable(k) {
		return 0
	}
	if ts.Vth == 0 {
		return ts.GrowthRate(k)
	}
	// On the imaginary axis w = i g the two beam terms are complex
	// conjugates, so D is real:
	// (ig - kv0)^2 = -g^2 - 2 i g k v0 + k^2 v0^2.
	// Adding the conjugate pair:
	//   1/(A - iB) + 1/(A + iB) = 2A / (A^2 + B^2),
	// with A = k^2 v0^2 - g^2 - 3 k^2 vth^2, B = 2 g k v0.
	d := func(g float64) float64 {
		a := k*k*ts.V0*ts.V0 - g*g - 3*k*k*ts.Vth*ts.Vth
		b := 2 * g * k * ts.V0
		return 1 - ts.Wp*ts.Wp*a/(a*a+b*b)
	}
	// Bracket the root: D(0+) < 0 in the unstable band, D(large) -> 1 > 0.
	lo, hi := 1e-12, 2*ts.Wp
	if d(lo) > 0 {
		return 0 // thermal effects stabilized the mode
	}
	for d(hi) < 0 {
		hi *= 2
		if hi > 1e6*ts.Wp {
			return 0
		}
	}
	for i := 0; i < 200; i++ {
		midG := 0.5 * (lo + hi)
		if d(midG) < 0 {
			lo = midG
		} else {
			hi = midG
		}
	}
	return 0.5 * (lo + hi)
}
