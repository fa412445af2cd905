//go:build !purego

package tensor

// asmSupported reports whether the CPU executes AVX and the operating
// system saves the ymm registers across context switches: CPUID leaf 1
// must show OSXSAVE and AVX, and XCR0 must enable the SSE and AVX
// state. The kernels use AVX1 instructions only.
func asmSupported() bool {
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
		xmmYmm  = 1<<1 | 1<<2
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&xmmYmm == xmmYmm
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0); call it only when
// CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// axpy1Asm is axpy1 in AVX; len(b) must equal len(d).
//
//go:noescape
func axpy1Asm(d, b []float64, v float64)

// axpy2Asm is axpy2 in AVX; len(b0) and len(b1) must equal len(d).
//
//go:noescape
func axpy2Asm(d, b0, b1 []float64, v0, v1 float64)
