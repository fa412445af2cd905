// Package phasespace implements the phase-space binning stage the
// DL-based PIC method introduces (paper §III, Fig. 2): particles are
// histogrammed onto a 2D (x, v) grid, and the resulting image is the
// input of the DL electric-field solver.
//
// The paper uses NGP ("the NGP interpolation scheme for the phase space
// binning") and suggests higher-order binning as an improvement; both
// NGP and CIC binning are provided.
package phasespace

import (
	"fmt"
	"math"

	"dlpic/internal/interp"
	"dlpic/internal/parallel"
)

// GridSpec describes the phase-space discretization: NX position bins
// over [0, L) (periodic) and NV velocity bins over [VMin, VMax]
// (clamped: particles outside the window are counted in the edge bins,
// so no particle is ever lost from the histogram).
type GridSpec struct {
	NX, NV     int
	L          float64
	VMin, VMax float64
	// Binning selects NGP (paper default) or CIC deposition into the
	// histogram. TSC is not supported here.
	Binning interp.Scheme
}

// DefaultSpec returns the repository default: 64x64 bins over the
// paper's box with a velocity window wide enough for the v0 = +-0.4
// cold-beam case plus nonlinear spread.
func DefaultSpec(l float64) GridSpec {
	return GridSpec{NX: 64, NV: 64, L: l, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
}

// Validate checks the spec.
func (s GridSpec) Validate() error {
	if s.NX < 2 || s.NV < 2 {
		return fmt.Errorf("phasespace: grid %dx%d too small", s.NX, s.NV)
	}
	if !(s.L > 0) {
		return fmt.Errorf("phasespace: non-positive box length %v", s.L)
	}
	if !(s.VMax > s.VMin) {
		return fmt.Errorf("phasespace: velocity window [%v,%v] empty", s.VMin, s.VMax)
	}
	if s.Binning != interp.NGP && s.Binning != interp.CIC {
		return fmt.Errorf("phasespace: unsupported binning %v (want NGP or CIC)", s.Binning)
	}
	return nil
}

// Size returns NX*NV, the flattened histogram length.
func (s GridSpec) Size() int { return s.NX * s.NV }

// Hist is a phase-space histogram: row-major [iv*NX + ix], counts (or
// CIC fractional counts) of particles per bin.
type Hist struct {
	Spec GridSpec
	Data []float64
}

// NewHist allocates an empty histogram for the spec.
func NewHist(spec GridSpec) (*Hist, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Hist{Spec: spec, Data: make([]float64, spec.Size())}, nil
}

// Reset zeroes the histogram.
func (h *Hist) Reset() {
	for i := range h.Data {
		h.Data[i] = 0
	}
}

// Bin accumulates the particle population (x, v) into the histogram
// (which is reset first). Positions must lie in [0, L); velocities are
// clamped to the window edges.
//
// NGP: each particle adds 1 to the bin containing it.
// CIC: each particle splits its unit weight bilinearly over the 2x2
// neighborhood of bin centers; position wraps periodically, velocity
// clamps at the window.
//
// The histogram is bit-identical at every GOMAXPROCS, including inside
// a sweep pool where the scatter runs inline, for a different reason
// per scheme. NGP bins hold whole counts, which float64 adds exactly in
// any order (up to 2^53 particles), so parallel.ScatterCount keeps one
// partial histogram per worker and the serial case counts straight into
// Data. CIC weights are fractional: they go through
// parallel.ScatterReduce, the primitive the PIC charge deposit uses,
// whose chunk decomposition depends only on the particle count and
// whose per-chunk partial histograms reduce in chunk order.
func (h *Hist) Bin(x, v []float64) error {
	if len(x) != len(v) {
		return fmt.Errorf("phasespace: x/v length mismatch %d vs %d", len(x), len(v))
	}
	spec := h.Spec
	nx, nv := spec.NX, spec.NV
	dx := spec.L / float64(nx)
	dv := (spec.VMax - spec.VMin) / float64(nv)
	switch spec.Binning {
	case interp.NGP:
		parallel.ScatterCount(len(x), h.Data, func(acc []float64, start, end int) {
			for p := start; p < end; p++ {
				ix := int(x[p] / dx)
				if ix >= nx {
					ix = nx - 1
				} else if ix < 0 {
					ix = 0
				}
				iv := int((v[p] - spec.VMin) / dv)
				if iv >= nv {
					iv = nv - 1
				} else if iv < 0 {
					iv = 0
				}
				acc[iv*nx+ix]++
			}
		})
	case interp.CIC:
		parallel.ScatterReduce(len(x), h.Data, func(acc []float64, start, end int) {
			for p := start; p < end; p++ {
				// Bin-center coordinates: center of bin i is (i+0.5)*dx.
				hx := x[p]/dx - 0.5
				ix0 := int(math.Floor(hx))
				fx := hx - float64(ix0)
				hv := (v[p]-spec.VMin)/dv - 0.5
				iv0 := int(math.Floor(hv))
				fv := hv - float64(iv0)
				// Clamp velocity indices; wrap position indices.
				iv1 := iv0 + 1
				if iv0 < 0 {
					iv0, iv1, fv = 0, 0, 0
				} else if iv1 >= nv {
					iv0, iv1, fv = nv-1, nv-1, 0
				}
				ix0w := ((ix0 % nx) + nx) % nx
				ix1w := (ix0w + 1) % nx
				w00 := (1 - fx) * (1 - fv)
				w10 := fx * (1 - fv)
				w01 := (1 - fx) * fv
				w11 := fx * fv
				acc[iv0*nx+ix0w] += w00
				acc[iv0*nx+ix1w] += w10
				acc[iv1*nx+ix0w] += w01
				acc[iv1*nx+ix1w] += w11
			}
		})
	default:
		return fmt.Errorf("phasespace: unsupported binning %v", spec.Binning)
	}
	return nil
}

// SpatialDensity writes the velocity-marginal of the histogram into out:
// out[ix] = sum_iv hist[iv][ix], i.e. the particle count per position
// bin. The oracle field solver uses this to recover the charge density
// the histogram encodes. out must have length NX.
func (h *Hist) SpatialDensity(out []float64) error {
	nx, nv := h.Spec.NX, h.Spec.NV
	if len(out) != nx {
		return fmt.Errorf("phasespace: SpatialDensity length %d, want %d", len(out), nx)
	}
	for ix := range out {
		out[ix] = 0
	}
	for iv := 0; iv < nv; iv++ {
		row := h.Data[iv*nx : (iv+1)*nx]
		for ix, c := range row {
			out[ix] += c
		}
	}
	return nil
}

// Normalizer rescales histogram values into [0, 1] with the min-max
// transform of the paper's Eq. 5: y = (x - min) / (max - min), where min
// and max are dataset-wide statistics fixed at training time.
type Normalizer struct {
	Min, Max float64
}

// FitNormalizer scans sample vectors and returns the min-max normalizer
// over all their entries.
func FitNormalizer(samples ...[]float64) (Normalizer, error) {
	if len(samples) == 0 {
		return Normalizer{}, fmt.Errorf("phasespace: FitNormalizer needs at least one sample")
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	count := 0
	for _, s := range samples {
		for _, v := range s {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			count++
		}
	}
	if count == 0 {
		return Normalizer{}, fmt.Errorf("phasespace: FitNormalizer saw no values")
	}
	if mx == mn {
		// Degenerate constant data: map everything to 0.
		return Normalizer{Min: mn, Max: mn + 1}, nil
	}
	return Normalizer{Min: mn, Max: mx}, nil
}

// Apply writes the normalized values of src into dst (which may alias).
func (n Normalizer) Apply(dst, src []float64) {
	scale := 1 / (n.Max - n.Min)
	for i, v := range src {
		dst[i] = (v - n.Min) * scale
	}
}
