// Package mover implements the particle pusher of the PIC cycle (paper
// Eqs. 1-2): the explicit leapfrog scheme used throughout the
// experiments.
//
// The leapfrog scheme staggers velocities half a step behind positions:
//
//	v^{n+1/2} = v^{n-1/2} + (q/m) E^n(x^n) dt
//	x^{n+1}   = x^n + v^{n+1/2} dt
//
// Kick returns the time-centered kinetic-energy and momentum sums
// (using both half-step velocities), which is the standard second-order
// energy diagnostic for leapfrog PIC.
package mover

import (
	"dlpic/internal/grid"
	"dlpic/internal/parallel"
)

// KickResult carries the time-centered diagnostic sums accumulated
// during a velocity kick.
type KickResult struct {
	// VProdSum is sum_p v_old * v_new; (m/2)*VProdSum is the
	// time-centered kinetic energy at the field time level.
	VProdSum float64
	// VMidSum is sum_p (v_old + v_new)/2; m*VMidSum is the time-centered
	// momentum.
	VMidSum float64
}

// Kick advances velocities by a full step, v += qm * ep * dt, where ep is
// the electric field gathered at each particle. It returns the
// time-centered diagnostic sums. The reduction uses the deterministic
// chunked primitives, so the sums are bit-identical at every GOMAXPROCS.
func Kick(v, ep []float64, qm, dt float64) KickResult {
	if len(v) != len(ep) {
		panic("mover: Kick length mismatch")
	}
	var sums [2]float64
	parallel.ReduceSums(len(v), sums[:], func(partial []float64, start, end int) {
		var ps, ms float64
		for i := start; i < end; i++ {
			vOld := v[i]
			vNew := vOld + qm*ep[i]*dt
			v[i] = vNew
			ps += vOld * vNew
			ms += 0.5 * (vOld + vNew)
		}
		partial[0] += ps
		partial[1] += ms
	})
	return KickResult{VProdSum: sums[0], VMidSum: sums[1]}
}

// KickHalf advances velocities by half a step (used to de-stagger the
// leapfrog at initialization: v^{-1/2} = v^0 - qm E^0 dt/2 with dt < 0,
// and to re-center velocities for diagnostics).
func KickHalf(v, ep []float64, qm, dt float64) {
	if len(v) != len(ep) {
		panic("mover: KickHalf length mismatch")
	}
	h := 0.5 * qm * dt
	parallel.For(len(v), func(start, end int) {
		for i := start; i < end; i++ {
			v[i] += h * ep[i]
		}
	})
}

// Drift advances positions by a full step, x += v*dt, wrapping into the
// periodic domain of g.
func Drift(x, v []float64, dt float64, g *grid.Grid) {
	if len(x) != len(v) {
		panic("mover: Drift length mismatch")
	}
	l := g.Length()
	parallel.For(len(x), func(start, end int) {
		for i := start; i < end; i++ {
			xn := x[i] + v[i]*dt
			// Fast wrap for the common one-period overshoot, falling back
			// to the general wrap for large excursions.
			if xn >= l {
				xn -= l
				if xn >= l {
					xn = g.Wrap(xn)
				}
			} else if xn < 0 {
				xn += l
				if xn < 0 {
					xn = g.Wrap(xn)
				}
			}
			x[i] = xn
		}
	})
}
