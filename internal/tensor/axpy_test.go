package tensor

import (
	"encoding/binary"
	"math"
	"testing"

	"dlpic/internal/rng"
)

// axpySpecials are the IEEE-754 edge values the row update must treat
// exactly as the scalar loop does: signed zeros, subnormals, the
// largest finite values, infinities and NaNs with distinct payloads.
var axpySpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	1, -1.5, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000123),
}

// asmModes lists the row-update paths this build can run: the Go loops
// always, the assembly as well where the CPU supports it.
func asmModes() []bool {
	if asmSupported() {
		return []bool{false, true}
	}
	return []bool{false}
}

// withAsm runs f with useAsm set to on, then restores it.
func withAsm(on bool, f func()) {
	prev := useAsm
	useAsm = on
	defer func() { useAsm = prev }()
	f()
}

// checkAxpy runs axpy1 and axpy2 on both paths from the same inputs,
// each on a slice starting off elements into its backing array, and
// reports the first element whose bits differ.
func checkAxpy(t *testing.T, d0, b0, b1 []float64, v0, v1 float64, off int) {
	t.Helper()
	n := len(d0)
	view := func(src []float64) []float64 {
		s := make([]float64, off+n)
		copy(s[off:], src)
		return s[off:]
	}
	b0v, b1v := view(b0), view(b1)
	for _, two := range []bool{false, true} {
		want, got := view(d0), view(d0)
		if two {
			axpy2Go(want, b0v, b1v, v0, v1)
			axpy2Asm(got, b0v, b1v, v0, v1)
		} else {
			axpy1Go(want, b0v, v0)
			axpy1Asm(got, b0v, v0)
		}
		if i := diffBits(got, want); i >= 0 {
			t.Fatalf("axpy2=%v n=%d off=%d v0=%x v1=%x: element %d asm=%x go=%x (d=%x b0=%x b1=%x)",
				two, n, off, math.Float64bits(v0), math.Float64bits(v1), i,
				math.Float64bits(got[i]), math.Float64bits(want[i]),
				math.Float64bits(d0[i]), math.Float64bits(b0[i]), math.Float64bits(b1[i]))
		}
	}
}

// TestAxpyMatchesGeneric pins the assembly row updates to the Go loops
// bit for bit: every length 0-67 (all remainders of the 8-wide body and
// the scalar tail), unaligned slice starts, and inputs drawn from the
// IEEE edge values mixed with ordinary normals.
func TestAxpyMatchesGeneric(t *testing.T) {
	if !asmSupported() {
		t.Skip("no assembly row update in this build")
	}
	r := rng.New(11)
	pick := func() float64 {
		if r.Float64() < 0.5 {
			return axpySpecials[r.Intn(len(axpySpecials))]
		}
		return r.NormFloat64()
	}
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = pick()
		}
		return s
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 4; trial++ {
				checkAxpy(t, fill(n), fill(n), fill(n), pick(), pick(), off)
			}
		}
	}
	for _, v0 := range axpySpecials {
		for _, v1 := range axpySpecials {
			checkAxpy(t, fill(19), fill(19), fill(19), v0, v1, 1)
		}
	}
}

// FuzzAxpy compares the assembly row updates with the Go loops on
// arbitrary bit patterns: the input bytes become d, b0 and b1 (eight
// bytes per element, so every NaN payload and subnormal is reachable).
func FuzzAxpy(f *testing.F) {
	seed := make([]byte, 0, 3*8*len(axpySpecials))
	for range 3 {
		for _, v := range axpySpecials {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
	}
	f.Add(seed, 0.5, -2.0, uint8(1))
	f.Add(seed[:3*8*9], math.Inf(1), math.NaN(), uint8(3))
	f.Add([]byte{}, 1.0, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, v0, v1 float64, off uint8) {
		if !asmSupported() {
			t.Skip("no assembly row update in this build")
		}
		n := len(data) / 24
		vals := make([]float64, 3*n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkAxpy(t, vals[:n], vals[n:2*n], vals[2*n:], v0, v1, int(off%4))
	})
}
