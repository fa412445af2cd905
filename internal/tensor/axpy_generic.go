//go:build !amd64 || purego

package tensor

// asmSupported is false: this build has no assembly row update.
func asmSupported() bool { return false }

// axpy1Asm is never reached here: useAsm stays false.
func axpy1Asm(d, b []float64, v float64) { panic("tensor: no assembly axpy in this build") }

// axpy2Asm is never reached here: useAsm stays false.
func axpy2Asm(d, b0, b1 []float64, v0, v1 float64) {
	panic("tensor: no assembly axpy in this build")
}
