package phasespace

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"dlpic/internal/interp"
	"dlpic/internal/rng"
)

// At returns the count at position bin ix, velocity bin iv.
func (h *Hist) At(ix, iv int) float64 { return h.Data[iv*h.Spec.NX+ix] }

// Total returns the sum of all bins (== particle count for NGP and CIC,
// since every particle deposits total weight 1).
func (h *Hist) Total() float64 {
	var s float64
	for _, v := range h.Data {
		s += v
	}
	return s
}

// Invert undoes the normalization: the inverse Apply is tested against.
func (n Normalizer) Invert(dst, src []float64) {
	scale := n.Max - n.Min
	for i, v := range src {
		dst[i] = v*scale + n.Min
	}
}

func spec() GridSpec {
	return GridSpec{NX: 16, NV: 8, L: 2.0, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
}

func TestSpecValidate(t *testing.T) {
	good := spec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []GridSpec{
		{NX: 1, NV: 8, L: 1, VMin: -1, VMax: 1, Binning: interp.NGP},
		{NX: 8, NV: 1, L: 1, VMin: -1, VMax: 1, Binning: interp.NGP},
		{NX: 8, NV: 8, L: 0, VMin: -1, VMax: 1, Binning: interp.NGP},
		{NX: 8, NV: 8, L: 1, VMin: 1, VMax: 1, Binning: interp.NGP},
		{NX: 8, NV: 8, L: 1, VMin: -1, VMax: 1, Binning: interp.TSC},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDefaultSpecCoversColdBeam(t *testing.T) {
	s := DefaultSpec(2 * math.Pi / 3.06)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NX != 64 || s.NV != 64 {
		t.Fatalf("default bins %dx%d, want 64x64", s.NX, s.NV)
	}
	if s.VMin > -0.4 || s.VMax < 0.4 {
		t.Fatalf("default window [%v,%v] does not cover v0=0.4", s.VMin, s.VMax)
	}
}

func TestNewHistRejectsBadSpec(t *testing.T) {
	if _, err := NewHist(GridSpec{}); err == nil {
		t.Fatal("zero spec should fail")
	}
}

// Property: binning conserves the particle count for both schemes.
func TestBinCountConservationProperty(t *testing.T) {
	r := rng.New(1)
	for _, binning := range []interp.Scheme{interp.NGP, interp.CIC} {
		s := spec()
		s.Binning = binning
		h, err := NewHist(s)
		if err != nil {
			t.Fatal(err)
		}
		f := func(nRaw uint8) bool {
			n := int(nRaw)%300 + 1
			x := make([]float64, n)
			v := make([]float64, n)
			for i := range x {
				x[i] = r.Float64() * s.L
				v[i] = (r.Float64()*4 - 2) * 0.8 // includes out-of-window values
			}
			if err := h.Bin(x, v); err != nil {
				return false
			}
			return math.Abs(h.Total()-float64(n)) < 1e-9*float64(n+1)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%v: %v", binning, err)
		}
	}
}

func TestBinNGPPlacement(t *testing.T) {
	s := spec() // dx = 0.125, dv = 0.2
	h, _ := NewHist(s)
	// Particle at x=0.3 -> ix = int(0.3/0.125) = 2; v=0.1 -> iv = int((0.1+0.8)/0.2) = 4.
	if err := h.Bin([]float64{0.3}, []float64{0.1}); err != nil {
		t.Fatal(err)
	}
	if h.At(2, 4) != 1 {
		t.Fatalf("count at (2,4) = %v, want 1; hist total %v", h.At(2, 4), h.Total())
	}
}

func TestBinNGPVelocityClamping(t *testing.T) {
	s := spec()
	h, _ := NewHist(s)
	if err := h.Bin([]float64{0.1, 0.1}, []float64{-5.0, 5.0}); err != nil {
		t.Fatal(err)
	}
	if h.At(0, 0) != 1 {
		t.Fatalf("low outlier not clamped to bottom row")
	}
	if h.At(0, s.NV-1) != 1 {
		t.Fatalf("high outlier not clamped to top row")
	}
}

func TestBinCICSplitsBilinearly(t *testing.T) {
	s := spec()
	s.Binning = interp.CIC
	h, _ := NewHist(s)
	// Bin centers: x_c(i) = (i+0.5)*0.125, v_c(j) = -0.8 + (j+0.5)*0.2.
	// Particle exactly on a bin center deposits 1 into that bin.
	if err := h.Bin([]float64{0.3125}, []float64{-0.1}); err != nil { // ix=2 center x=0.3125; iv: (-0.1+0.8)/0.2-0.5=3.0 -> center of bin 3
		t.Fatal(err)
	}
	if math.Abs(h.At(2, 3)-1) > 1e-12 {
		t.Fatalf("center deposit = %v, want 1 (total %v)", h.At(2, 3), h.Total())
	}
	// Particle halfway between centers in both coordinates: four 0.25s.
	if err := h.Bin([]float64{0.375}, []float64{0.0}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ ix, iv int }{{2, 3}, {3, 3}, {2, 4}, {3, 4}} {
		if math.Abs(h.At(q.ix, q.iv)-0.25) > 1e-12 {
			t.Fatalf("quad (%d,%d) = %v, want 0.25", q.ix, q.iv, h.At(q.ix, q.iv))
		}
	}
}

func TestBinCICPositionWrap(t *testing.T) {
	s := spec()
	s.Binning = interp.CIC
	h, _ := NewHist(s)
	// Particle past the last bin center splits across the periodic seam.
	x := s.L - 0.01
	if err := h.Bin([]float64{x}, []float64{-0.1}); err != nil {
		t.Fatal(err)
	}
	if h.At(s.NX-1, 3) <= 0 || h.At(0, 3) <= 0 {
		t.Fatalf("seam split missing: last=%v first=%v", h.At(s.NX-1, 3), h.At(0, 3))
	}
	if math.Abs(h.Total()-1) > 1e-12 {
		t.Fatalf("total %v, want 1", h.Total())
	}
}

func TestBinLengthMismatch(t *testing.T) {
	h, _ := NewHist(spec())
	if err := h.Bin(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSpatialDensityMarginal(t *testing.T) {
	s := spec()
	h, _ := NewHist(s)
	r := rng.New(2)
	n := 5000
	x := make([]float64, n)
	v := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() * s.L
		v[i] = 0.5 * r.NormFloat64()
	}
	if err := h.Bin(x, v); err != nil {
		t.Fatal(err)
	}
	dens := make([]float64, s.NX)
	if err := h.SpatialDensity(dens); err != nil {
		t.Fatal(err)
	}
	var tot float64
	for _, d := range dens {
		tot += d
	}
	if math.Abs(tot-float64(n)) > 1e-9 {
		t.Fatalf("marginal total %v, want %d", tot, n)
	}
	// Cross-check one column by brute force.
	dx := s.L / float64(s.NX)
	var brute float64
	for i := range x {
		if int(x[i]/dx) == 3 {
			brute++
		}
	}
	if math.Abs(dens[3]-brute) > 1e-9 {
		t.Fatalf("column 3: marginal %v, brute force %v", dens[3], brute)
	}
	if err := h.SpatialDensity(make([]float64, 3)); err == nil {
		t.Fatal("wrong length should error")
	}
}

func TestFitNormalizer(t *testing.T) {
	n, err := FitNormalizer([]float64{1, 5}, []float64{3, -2})
	if err != nil {
		t.Fatal(err)
	}
	if n.Min != -2 || n.Max != 5 {
		t.Fatalf("normalizer [%v,%v], want [-2,5]", n.Min, n.Max)
	}
	if _, err := FitNormalizer(); err == nil {
		t.Fatal("no samples should error")
	}
	if _, err := FitNormalizer([]float64{}); err == nil {
		t.Fatal("empty samples should error")
	}
}

func TestFitNormalizerConstantData(t *testing.T) {
	n, err := FitNormalizer([]float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	n.Apply(out, []float64{4, 4, 4})
	for _, v := range out {
		if v != 0 {
			t.Fatalf("constant data normalized to %v, want 0", v)
		}
	}
}

// Property: Apply maps into [0,1] for in-range data and Invert restores
// the original values.
func TestNormalizerRoundTripProperty(t *testing.T) {
	f := func(vals [8]float64) bool {
		src := make([]float64, 8)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				v = float64(i)
			}
			src[i] = v
		}
		n, err := FitNormalizer(src)
		if err != nil {
			return false
		}
		norm := make([]float64, 8)
		n.Apply(norm, src)
		span := n.Max - n.Min
		for _, v := range norm {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		back := make([]float64, 8)
		n.Invert(back, norm)
		for i := range back {
			if math.Abs(back[i]-src[i]) > 1e-9*(1+span) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizerApplyInPlace(t *testing.T) {
	n := Normalizer{Min: 0, Max: 10}
	vals := []float64{0, 5, 10}
	n.Apply(vals, vals)
	want := []float64{0, 0.5, 1}
	for i := range vals {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("in-place apply: %v, want %v", vals, want)
		}
	}
}

func BenchmarkBinNGP64k(b *testing.B) {
	s := DefaultSpec(2 * math.Pi / 3.06)
	h, _ := NewHist(s)
	r := rng.New(1)
	n := 64000
	x := make([]float64, n)
	v := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() * s.L
		v[i] = 0.3 * r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Bin(x, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinCIC64k(b *testing.B) {
	s := DefaultSpec(2 * math.Pi / 3.06)
	s.Binning = interp.CIC
	h, _ := NewHist(s)
	r := rng.New(1)
	n := 64000
	x := make([]float64, n)
	v := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() * s.L
		v[i] = 0.3 * r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Bin(x, v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBinBitIdenticalAcrossGOMAXPROCS pins the sharded scatter: the
// histogram must be bit-identical at every worker count for both
// binning schemes, at particle counts large enough to span many chunks.
func TestBinBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, scheme := range []interp.Scheme{interp.NGP, interp.CIC} {
		s := DefaultSpec(2 * math.Pi / 3.06)
		s.Binning = scheme
		r := rng.New(9)
		n := 50000 // >> chunkGrain: the scatter splits into many chunks
		x := make([]float64, n)
		v := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * s.L
			v[i] = 0.3 * r.NormFloat64()
		}
		ref := make([]float64, s.Size())
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			h, err := NewHist(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Bin(x, v); err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				copy(ref, h.Data)
				continue
			}
			for i := range ref {
				if h.Data[i] != ref[i] {
					t.Fatalf("%v binning: GOMAXPROCS=%d bin %d = %v, serial %v",
						scheme, procs, i, h.Data[i], ref[i])
				}
			}
		}
	}
}

// TestBinNGPEqualsNaiveOnEdges holds the worker-split NGP scatter to a
// plain serial count on the inputs where an index can fall off the grid:
// the box seams, velocities outside the window, and a population that
// lands in a single bin (every worker increments the same slot).
func TestBinNGPEqualsNaiveOnEdges(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	s := DefaultSpec(2 * math.Pi / 3.06)
	dx := s.L / float64(s.NX)
	dv := (s.VMax - s.VMin) / float64(s.NV)
	clamp := func(i, n int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	edgeX := []float64{0, math.Nextafter(s.L, 0), dx, math.Nextafter(dx, 0), s.L / 2}
	edgeV := []float64{s.VMin - 1, s.VMin, math.Nextafter(s.VMin, -1), s.VMax, math.Nextafter(s.VMax, 0), s.VMax + 1, 0}
	const n = 5000 // several chunks, so GOMAXPROCS=4 really splits
	populations := []struct {
		name string
		at   func(i int) (x, v float64)
	}{
		{"edges", func(i int) (float64, float64) { return edgeX[i%len(edgeX)], edgeV[i%len(edgeV)] }},
		{"one bin", func(int) (float64, float64) { return 0.3 * dx, s.VMin + 0.3*dv }},
	}
	for _, pop := range populations {
		x := make([]float64, n)
		v := make([]float64, n)
		want := make([]float64, s.Size())
		for i := range x {
			x[i], v[i] = pop.at(i)
			ix := clamp(int(x[i]/dx), s.NX)
			iv := clamp(int((v[i]-s.VMin)/dv), s.NV)
			want[iv*s.NX+ix]++
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			h, err := NewHist(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Bin(x, v); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if h.Data[i] != want[i] {
					t.Fatalf("%s, GOMAXPROCS=%d: bin %d = %v, naive %v", pop.name, procs, i, h.Data[i], want[i])
				}
			}
		}
	}
}
