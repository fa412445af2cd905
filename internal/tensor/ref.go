package tensor

// Reference GEMM kernels. These serial, naive loops define the
// per-element accumulation contract the tiled kernels in gemm.go must
// reproduce bit-for-bit: for every output element, products are folded
// k ascending; the NN/TN/TT variants skip zero a-entries (the products
// they would contribute are exact zeros, and ReLU activations make the
// skip worth a branch); NN and TN accumulate in place (under acc the
// chain continues from dst's current value), while NT and TT build a
// local sum from zero and fold it into dst once. The property tests
// diff the tiled kernels against these loops across shapes, transposes,
// acc and GOMAXPROCS.

// MatMulRef computes dst = op(a) * op(b) with the serial reference
// loops (same shape/alias validation as MatMul).
func MatMulRef(dst, a, b *Tensor, transA, transB bool) {
	refMatMul(dst, a, b, transA, transB, false)
}

// MatMulAccRef computes dst += op(a) * op(b) with the serial reference
// loops (the reference for MatMulAcc).
func MatMulAccRef(dst, a, b *Tensor, transA, transB bool) {
	refMatMul(dst, a, b, transA, transB, true)
}

func refMatMul(dst, a, b *Tensor, transA, transB, acc bool) {
	checkMatMul(dst, a, b, transA, transB)
	switch {
	case !transA && !transB:
		refNN(dst, a, b, acc)
	case !transA && transB:
		refNT(dst, a, b, acc)
	case transA && !transB:
		refTN(dst, a, b, acc)
	default:
		refTT(dst, a, b, acc)
	}
}

// refNN: dst[i][j] = sum_k a[i][k] b[k][j], accumulated in place, zero
// a-entries skipped.
func refNN(dst, a, b *Tensor, acc bool) {
	m, kk := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for i := 0; i < m; i++ {
		di := dst.Data[i*n : (i+1)*n]
		if !acc {
			for j := range di {
				di[j] = 0
			}
		}
		ai := a.Data[i*kk : (i+1)*kk]
		for k := 0; k < kk; k++ {
			aik := ai[k]
			if aik == 0 {
				continue
			}
			bk := b.Data[k*n : (k+1)*n]
			for j, bv := range bk {
				di[j] += aik * bv
			}
		}
	}
}

// refNT: dst[i][j] = dot(a[i,:], b[j,:]), local sum folded into dst
// once, no zero skip.
func refNT(dst, a, b *Tensor, acc bool) {
	m, kk := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	for i := 0; i < m; i++ {
		ai := a.Data[i*kk : (i+1)*kk]
		di := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*kk : (j+1)*kk]
			var s float64
			for k, av := range ai {
				s += av * bj[k]
			}
			if acc {
				di[j] += s
			} else {
				di[j] = s
			}
		}
	}
}

// refTN: dst[i][j] = sum_k a[k][i] b[k][j], accumulated in place, zero
// a-entries skipped.
func refTN(dst, a, b *Tensor, acc bool) {
	kk, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for i := 0; i < m; i++ {
		di := dst.Data[i*n : (i+1)*n]
		if !acc {
			for j := range di {
				di[j] = 0
			}
		}
		for k := 0; k < kk; k++ {
			aki := a.Data[k*m+i]
			if aki == 0 {
				continue
			}
			bk := b.Data[k*n : (k+1)*n]
			for j, bv := range bk {
				di[j] += aki * bv
			}
		}
	}
}

// refTT: dst[i][j] = sum_k a[k][i] b[j][k], local sum folded into dst
// once, zero a-entries skipped.
func refTT(dst, a, b *Tensor, acc bool) {
	kk, m := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	for i := 0; i < m; i++ {
		di := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*kk : (j+1)*kk]
			var s float64
			for k := 0; k < kk; k++ {
				av := a.Data[k*m+i]
				if av == 0 {
					continue
				}
				s += av * bj[k]
			}
			if acc {
				di[j] += s
			} else {
				di[j] = s
			}
		}
	}
}
