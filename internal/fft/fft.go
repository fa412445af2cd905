// Package fft implements the discrete Fourier transforms used by the
// spectral Poisson solver and the field-mode diagnostics.
//
// The implementation is self-contained (stdlib only): an iterative
// in-place radix-2 Cooley-Tukey transform for power-of-two lengths and
// Bluestein's chirp-z algorithm for arbitrary lengths. Plans cache twiddle
// factors so repeated transforms of the same length (the common case in a
// PIC loop, one solve per time step) allocate nothing.
//
// Convention: Forward computes X[k] = sum_n x[n] exp(-2*pi*i*k*n/N) and
// Inverse divides by N, so Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds precomputed tables for transforms of a fixed length.
// A Plan is safe for concurrent use by multiple goroutines only if each
// goroutine uses its own scratch buffers; the methods on Plan itself do
// not mutate the plan after construction except through caller-provided
// slices.
type Plan struct {
	n       int
	pow2    bool
	twiddle []complex128 // radix-2 twiddles for length n (pow2 only)
	rev     []int        // bit-reversal permutation (pow2 only)

	// Bluestein machinery (non-pow2 only).
	chirp []complex128 // exp(-i*pi*k^2/n)
	bk    []complex128 // pre-transformed filter, length m
	sub   *Plan        // power-of-two convolution plan of length m
	m     int
}

// NewPlan constructs a transform plan for length n. n must be positive.
func NewPlan(n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fft: invalid transform length %d", n)
	}
	p := &Plan{n: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.initRadix2()
		return p, nil
	}
	p.initBluestein()
	return p, nil
}

// MustPlan is NewPlan that panics on error; for use with static sizes.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

func (p *Plan) initRadix2() {
	n := p.n
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	p.rev = make([]int, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
}

func (p *Plan) initBluestein() {
	n := p.n
	// Convolution length: smallest power of two >= 2n-1.
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.sub = MustPlan(m)
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k*k mod 2n to keep the angle argument small and accurate.
		idx := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(idx) / float64(n)
		p.chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	// Filter b[k] = conj(chirp[k]) wrapped, then forward transformed.
	b := make([]complex128, m)
	b[0] = cmplxConj(p.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplxConj(p.chirp[k])
		b[k] = c
		b[m-k] = c
	}
	p.sub.forwardPow2(b)
	p.bk = b
}

func cmplxConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// Forward replaces x with its DFT. len(x) must equal the plan length.
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: Forward length %d, plan length %d", len(x), p.n))
	}
	if p.pow2 {
		p.forwardPow2(x)
		return
	}
	p.bluestein(x, false)
}

// Inverse replaces x with its inverse DFT (normalized by 1/N).
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: Inverse length %d, plan length %d", len(x), p.n))
	}
	if p.pow2 {
		conjugateAll(x)
		p.forwardPow2(x)
		invN := 1 / float64(p.n)
		for i := range x {
			x[i] = complex(real(x[i])*invN, -imag(x[i])*invN)
		}
		return
	}
	p.bluestein(x, true)
}

func conjugateAll(x []complex128) {
	for i := range x {
		x[i] = cmplxConj(x[i])
	}
}

// forwardPow2 is the iterative in-place radix-2 DIT transform.
func (p *Plan) forwardPow2(x []complex128) {
	n := p.n
	if !p.pow2 {
		panic("fft: forwardPow2 on non-power-of-two plan")
	}
	rev := p.rev
	for i, j := range rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				tw += step
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
			}
		}
	}
}

// bluestein computes the length-n DFT (or inverse) via chirp-z.
func (p *Plan) bluestein(x []complex128, inverse bool) {
	n, m := p.n, p.m
	a := make([]complex128, m)
	if inverse {
		for k := 0; k < n; k++ {
			a[k] = cmplxConj(x[k]) * p.chirp[k]
		}
	} else {
		for k := 0; k < n; k++ {
			a[k] = x[k] * p.chirp[k]
		}
	}
	p.sub.forwardPow2(a)
	for i := range a {
		a[i] *= p.bk[i]
	}
	// Inverse transform of the product (power-of-two path).
	conjugateAll(a)
	p.sub.forwardPow2(a)
	scale := 1 / float64(m)
	for k := 0; k < n; k++ {
		v := complex(real(a[k])*scale, -imag(a[k])*scale) * p.chirp[k]
		if inverse {
			v = cmplxConj(v)
			v = complex(real(v)/float64(n), imag(v)/float64(n))
		}
		x[k] = v
	}
}

// ForwardReal computes the DFT of a real signal into dst (length n of the
// plan). dst and src may not alias. It returns dst for chaining.
func (p *Plan) ForwardReal(dst []complex128, src []float64) []complex128 {
	if len(src) != p.n || len(dst) != p.n {
		panic("fft: ForwardReal length mismatch")
	}
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
	p.Forward(dst)
	return dst
}

// InverseReal computes the inverse DFT of spec and writes the real part
// into dst, discarding the (ideally negligible) imaginary residue.
// spec is clobbered.
func (p *Plan) InverseReal(dst []float64, spec []complex128) []float64 {
	if len(spec) != p.n || len(dst) != p.n {
		panic("fft: InverseReal length mismatch")
	}
	p.Inverse(spec)
	for i := range dst {
		dst[i] = real(spec[i])
	}
	return dst
}

// Amplitudes fills amp with the single-sided magnitude spectrum of the
// real signal x: amp[k] = |X_k| / N * (2 for 0<k<N/2, 1 otherwise),
// which makes amp[k] the amplitude of the cos/sin mode k. Returns amp.
// len(amp) must be n/2+1.
func Amplitudes(amp []float64, x []float64, p *Plan) []float64 {
	n := p.n
	if len(x) != n || len(amp) != n/2+1 {
		panic("fft: Amplitudes length mismatch")
	}
	spec := make([]complex128, n)
	p.ForwardReal(spec, x)
	invN := 1 / float64(n)
	for k := 0; k <= n/2; k++ {
		mag := math.Hypot(real(spec[k]), imag(spec[k])) * invN
		if k != 0 && !(n%2 == 0 && k == n/2) {
			mag *= 2
		}
		amp[k] = mag
	}
	return amp
}
