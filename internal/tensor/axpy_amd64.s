//go:build !purego

#include "textflag.h"

// Every multiply takes b as its first source and every add takes the
// running sum's left-hand side first, the operand order of the scalar
// MULSD/ADDSD the Go loops compile to, so even NaN payloads match.
// No FMA: see axpy.go.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy1Asm(d, b []float64, v float64)
// d[j] = (b[j]*v) + d[j]
TEXT ·axpy1Asm(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VBROADCASTSD v+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   tail1

loop1:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop1

tail1:
	CMPQ AX, CX
	JGE  done1

scalar1:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    scalar1

done1:
	VZEROUPPER
	RET

// func axpy2Asm(d, b0, b1 []float64, v0, v1 float64)
// s = (b0[j]*v0) + d[j]; d[j] = s + (b1[j]*v1)
TEXT ·axpy2Asm(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	VBROADCASTSD v0+72(FP), Y0
	VBROADCASTSD v1+80(FP), Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   tail2

loop2:
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VADDPD  (DI)(AX*8), Y2, Y2
	VADDPD  32(DI)(AX*8), Y3, Y3
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y5
	VMULPD  Y1, Y4, Y4
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop2

tail2:
	CMPQ AX, CX
	JGE  done2

scalar2:
	VMOVSD (SI)(AX*8), X2
	VMULSD X0, X2, X2
	VADDSD (DI)(AX*8), X2, X2
	VMOVSD (R8)(AX*8), X4
	VMULSD X1, X4, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    scalar2

done2:
	VZEROUPPER
	RET
