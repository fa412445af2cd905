// Package particle stores macro-particle populations and implements the
// initial loading schemes of the two-stream experiments (paper §II-III).
//
// Particles are stored in structure-of-arrays layout (separate X and V
// slices) so the hot push/deposit loops stream through contiguous memory.
// All particles in a Population share one macro-particle charge and mass,
// matching the paper's setup of identical electrons over a motionless,
// neutralizing proton background.
package particle

import (
	"fmt"
	"math"

	"dlpic/internal/rng"
)

// Population is a set of identical macro-particles in 1D phase space.
type Population struct {
	// X holds positions in [0, L); V holds velocities. len(X) == len(V).
	X, V []float64
	// Charge and Mass are per macro-particle; QOverM = Charge/Mass is the
	// physical charge-to-mass ratio (independent of macro-particle
	// weighting).
	Charge, Mass, QOverM float64
}

// N returns the particle count.
func (p *Population) N() int { return len(p.X) }

// TwoStreamOpts configures the two counter-streaming electron beams.
type TwoStreamOpts struct {
	// N is the total macro-particle count, split evenly between the two
	// beams (must be even and positive).
	N int
	// L is the periodic domain length.
	L float64
	// V0 is the beam drift speed: beam 1 drifts at +V0, beam 2 at -V0.
	V0 float64
	// Vth is the Gaussian thermal spread added to each beam.
	Vth float64
	// PerturbAmp, if non-zero, displaces initial positions by
	// PerturbAmp * sin(2 pi PerturbMode x / L) to seed a chosen mode.
	// With PerturbAmp == 0 the instability grows from loading noise, as in
	// the paper.
	PerturbAmp  float64
	PerturbMode int
	// Quiet selects deterministic uniform position loading (one particle
	// per equal slot per beam) instead of uniform-random loading. Quiet
	// starts suppress loading noise by orders of magnitude, giving clean
	// linear-phase growth-rate measurements.
	Quiet bool
	// Charge and Mass are per macro-particle (see pic.Config for the
	// standard normalization).
	Charge, Mass float64
}

// Validate checks option consistency.
func (o TwoStreamOpts) Validate() error {
	if o.N <= 0 || o.N%2 != 0 {
		return fmt.Errorf("particle: two-stream N must be positive and even, got %d", o.N)
	}
	if !(o.L > 0) {
		return fmt.Errorf("particle: two-stream L must be positive, got %v", o.L)
	}
	if o.Vth < 0 {
		return fmt.Errorf("particle: negative thermal speed %v", o.Vth)
	}
	if o.Mass == 0 {
		return fmt.Errorf("particle: zero macro-particle mass")
	}
	if o.PerturbAmp != 0 && o.PerturbMode <= 0 {
		return fmt.Errorf("particle: perturbation amplitude set but mode %d invalid", o.PerturbMode)
	}
	return nil
}

// LoadTwoStream creates the two-beam population of the paper's §III:
// half the particles drifting at +V0, half at -V0, each with Gaussian
// spread Vth, uniformly distributed in space.
func LoadTwoStream(o TwoStreamOpts, r *rng.Source) (*Population, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p := &Population{
		X:      make([]float64, o.N),
		V:      make([]float64, o.N),
		Charge: o.Charge,
		Mass:   o.Mass,
		QOverM: o.Charge / o.Mass,
	}
	half := o.N / 2
	for i := 0; i < o.N; i++ {
		var x float64
		if o.Quiet {
			// Beam-local uniform slots with a half-slot offset; the two
			// beams are interleaved by construction of the index split.
			j := i
			if i >= half {
				j = i - half
			}
			x = (float64(j) + 0.5) / float64(half) * o.L
		} else {
			x = r.Float64() * o.L
		}
		if o.PerturbAmp != 0 {
			x += o.PerturbAmp * math.Sin(2*math.Pi*float64(o.PerturbMode)*x/o.L)
		}
		// Wrap into [0, L).
		x = math.Mod(x, o.L)
		if x < 0 {
			x += o.L
		}
		p.X[i] = x
		drift := o.V0
		if i >= half {
			drift = -o.V0
		}
		v := drift
		if o.Vth > 0 {
			v += o.Vth * r.NormFloat64()
		}
		p.V[i] = v
	}
	return p, nil
}
