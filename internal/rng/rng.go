// Package rng implements the deterministic random-number generation used
// by the simulations and the training pipeline.
//
// Reproducibility is a hard requirement for this project: dataset
// generation, particle loading, weight initialization and minibatch
// shuffling must all be replayable from a single root seed. The package
// provides xoshiro256** seeded through SplitMix64; each component seeds
// its own Source, so no two share mutable state.
package rng

import (
	"errors"
	"math"
)

// splitMix64 advances the 64-bit SplitMix64 state and returns the next
// output. It seeds xoshiro.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** pseudo-random generator.
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
	// spare Gaussian value from Box-Muller, valid when hasSpare is set.
	spare    float64
	hasSpare bool
}

// New returns a Source deterministically derived from seed.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// NormFloat64 returns a standard-normal variate using the Box-Muller
// transform. Values come in pairs; the second of each pair is cached.
func (r *Source) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	// Box-Muller with rejection of u1 == 0 to avoid log(0).
	var u1 float64
	for {
		u1 = r.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.spare = mag * math.Sin(2*math.Pi*u2)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*u2)
}

// State is the serializable snapshot of a Source: the xoshiro256**
// registers plus the cached Box-Muller spare. Restoring a snapshot
// reproduces the original stream bit-identically, which is what lets
// training checkpoints (internal/nn) freeze and resume the minibatch
// shuffle cursor mid-campaign.
type State struct {
	// S holds the four xoshiro256** state words.
	S [4]uint64
	// Spare and HasSpare carry the cached second Box-Muller variate.
	Spare    float64
	HasSpare bool
}

// Snapshot returns the current state of r. The snapshot is a value
// copy: advancing r afterwards does not perturb it.
func (r *Source) Snapshot() State {
	return State{S: r.s, Spare: r.spare, HasSpare: r.hasSpare}
}

// FromState reconstructs a Source from a snapshot. The restored source
// continues the original stream bit-identically. The all-zero xoshiro
// state is unreachable from New and would lock the generator at zero,
// so it is rejected as corrupt.
func FromState(st State) (*Source, error) {
	if st.S[0]|st.S[1]|st.S[2]|st.S[3] == 0 {
		return nil, errAllZeroState
	}
	return &Source{s: st.S, spare: st.Spare, hasSpare: st.HasSpare}, nil
}

// errAllZeroState rejects snapshots no healthy Source can produce.
var errAllZeroState = errors.New("rng: all-zero state snapshot (corrupt)")

// Shuffle permutes the integers [0, n) with the Fisher-Yates algorithm,
// calling swap(i, j) for each exchange.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
