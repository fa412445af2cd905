package tensor

// Row updates of the NN/TN GEMM engine. gemm.go's header says why the
// assembly (axpy_amd64.s) is bit-identical to the scalar chain and must
// never use FMA. The Go loops below are the fallback on other
// architectures, on CPUs without AVX and under the purego build tag,
// and the reference the assembly is tested against.

// useAsm routes axpy1 and axpy2 to the assembly kernels. It is set once
// at init from the CPU's features and is false wherever there are none;
// tests flip it to pin both paths.
var useAsm = asmSupported()

// axpy1 computes d[j] += v*b[j] for j < len(d).
func axpy1(d, b []float64, v float64) {
	if useAsm {
		axpy1Asm(d, b[:len(d)], v)
		return
	}
	axpy1Go(d, b, v)
}

// axpy2 computes d[j] = (d[j] + v0*b0[j]) + v1*b1[j] for j < len(d):
// two k steps of one row with the intermediate kept in a register.
func axpy2(d, b0, b1 []float64, v0, v1 float64) {
	if useAsm {
		axpy2Asm(d, b0[:len(d)], b1[:len(d)], v0, v1)
		return
	}
	axpy2Go(d, b0, b1, v0, v1)
}

// axpy1Go is the portable form of axpy1; b must be at least as long as d.
func axpy1Go(d, b []float64, v float64) {
	for j, bv := range b[:len(d)] {
		d[j] += v * bv
	}
}

// axpy2Go is the portable form of axpy2; b0 and b1 must be at least as
// long as d.
func axpy2Go(d, b0, b1 []float64, v0, v1 float64) {
	b1 = b1[:len(d)]
	for j, bv := range b0[:len(d)] {
		s := d[j] + v0*bv
		d[j] = s + v1*b1[j]
	}
}
