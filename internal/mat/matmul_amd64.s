//go:build amd64

#include "textflag.h"

// func cpuHasAVX2FMA() bool
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	// CPUID.(EAX=1):ECX — FMA bit 12, OSXSAVE bit 27, AVX bit 28.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  notsup

	// XGETBV(0): OS must save XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  notsup

	// CPUID.(EAX=7,ECX=0):EBX — AVX2 bit 5.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   notsup
	MOVB $1, ret+0(FP)
	RET

notsup:
	MOVB $0, ret+0(FP)
	RET

// func mmAVX4x8(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool)
//
// 4×8 register tile of out (+)= a·b. Eight YMM accumulators hold the tile
// (row r in Y(2r), Y(2r+1)); per k step the kernel loads one 8-wide slice of
// b's row k and broadcasts the four a values a[r][k], issuing eight FMAs.
// Each output cell is a single fused-multiply-add chain in ascending k.
TEXT ·mmAVX4x8(SB), NOSPLIT, $0-57
	MOVQ po+0(FP), DI
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DX
	MOVQ ldo+24(FP), R8
	MOVQ lda+32(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ kl+48(FP), CX
	SHLQ $3, R8                  // row strides in bytes
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R11         // 3*lda bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

kloop:
	VMOVUPD      (DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (SI)(R9*1), Y10
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3
	VBROADCASTSD (SI)(R9*2), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VBROADCASTSD (SI)(R11*1), Y10
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7
	ADDQ         $8, SI
	ADDQ         R10, DX
	DECQ         CX
	JNZ          kloop

	MOVB  accum+56(FP), AX
	TESTB AX, AX
	JZ    store

	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	LEAQ   (DI)(R8*1), BX
	VADDPD (BX), Y2, Y2
	VADDPD 32(BX), Y3, Y3
	VADDPD (BX)(R8*1), Y4, Y4
	VADDPD 32(BX)(R8*1), Y5, Y5
	VADDPD (BX)(R8*2), Y6, Y6
	VADDPD 32(BX)(R8*2), Y7, Y7

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func mmT1AVX4x8(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool)
//
// Transposed-A variant: out[0:4][0:8] (+)= a[·,0:4]ᵀ·b[·,0:8]. The four a
// values per k step sit contiguously at pa[0..3], so the broadcasts read
// consecutive memory and pa advances one a-row per k.
TEXT ·mmT1AVX4x8(SB), NOSPLIT, $0-57
	MOVQ po+0(FP), DI
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DX
	MOVQ ldo+24(FP), R8
	MOVQ lda+32(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ kl+48(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

t1loop:
	VMOVUPD      (DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y10
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3
	VBROADCASTSD 16(SI), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VBROADCASTSD 24(SI), Y10
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7
	ADDQ         R9, SI
	ADDQ         R10, DX
	DECQ         CX
	JNZ          t1loop

	MOVB  accum+56(FP), AX
	TESTB AX, AX
	JZ    t1store

	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	LEAQ   (DI)(R8*1), BX
	VADDPD (BX), Y2, Y2
	VADDPD 32(BX), Y3, Y3
	VADDPD (BX)(R8*1), Y4, Y4
	VADDPD 32(BX)(R8*1), Y5, Y5
	VADDPD (BX)(R8*2), Y6, Y6
	VADDPD 32(BX)(R8*2), Y7, Y7

t1store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func mmT2AVX2x4(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool)
//
// Transposed-B variant: out[0:2][0:4] (+)= a(2×kl)·b(4×kl)ᵀ — eight
// simultaneous dot products over row-major operands. The main loop
// accumulates four k-lanes per product in a YMM; lanes are reduced in a
// fixed order ((l0+l2)+(l1+l3) via VHADDPD after VEXTRACTF128) and the
// ragged k tail (kl mod 4) is folded in scalar after the reduction, so the
// accumulation order per cell is a pure function of kl.
TEXT ·mmT2AVX2x4(SB), NOSPLIT, $0-57
	MOVQ po+0(FP), DI
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DX
	MOVQ ldo+24(FP), R8
	MOVQ lda+32(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ kl+48(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R13     // 3*ldb bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, R12               // kl mod 4 = scalar tail length
	ANDQ $3, R12
	SHRQ $2, CX                // vector iterations
	JZ   t2reduce

t2loop:
	VMOVUPD     (SI), Y8
	VMOVUPD     (SI)(R9*1), Y9
	VMOVUPD     (DX), Y10
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4
	VMOVUPD     (DX)(R10*1), Y10
	VFMADD231PD Y10, Y8, Y1
	VFMADD231PD Y10, Y9, Y5
	VMOVUPD     (DX)(R10*2), Y10
	VFMADD231PD Y10, Y8, Y2
	VFMADD231PD Y10, Y9, Y6
	VMOVUPD     (DX)(R13*1), Y10
	VFMADD231PD Y10, Y8, Y3
	VFMADD231PD Y10, Y9, Y7
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        CX
	JNZ         t2loop

t2reduce:
	// Reduce each 4-lane partial to a scalar in the low lane.
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPD       X8, X4, X4
	VHADDPD      X4, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPD       X8, X5, X5
	VHADDPD      X5, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPD       X8, X6, X6
	VHADDPD      X6, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPD       X8, X7, X7
	VHADDPD      X7, X7, X7

	TESTQ R12, R12
	JZ    t2tail_done

t2tail:
	VMOVSD      (SI), X8
	VMOVSD      (SI)(R9*1), X9
	VMOVSD      (DX), X10
	VFMADD231SD X10, X8, X0
	VFMADD231SD X10, X9, X4
	VMOVSD      (DX)(R10*1), X10
	VFMADD231SD X10, X8, X1
	VFMADD231SD X10, X9, X5
	VMOVSD      (DX)(R10*2), X10
	VFMADD231SD X10, X8, X2
	VFMADD231SD X10, X9, X6
	VMOVSD      (DX)(R13*1), X10
	VFMADD231SD X10, X8, X3
	VFMADD231SD X10, X9, X7
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        R12
	JNZ         t2tail

t2tail_done:
	MOVB  accum+56(FP), AX
	TESTB AX, AX
	JZ    t2store

	VADDSD (DI), X0, X0
	VADDSD 8(DI), X1, X1
	VADDSD 16(DI), X2, X2
	VADDSD 24(DI), X3, X3
	LEAQ   (DI)(R8*1), BX
	VADDSD (BX), X4, X4
	VADDSD 8(BX), X5, X5
	VADDSD 16(BX), X6, X6
	VADDSD 24(BX), X7, X7

t2store:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ   R8, DI
	VMOVSD X4, (DI)
	VMOVSD X5, 8(DI)
	VMOVSD X6, 16(DI)
	VMOVSD X7, 24(DI)
	VZEROUPPER
	RET

// func axpyAVX(dst, src *float64, alpha float64, n int)
//
// dst[0:n] += alpha*src[0:n] for n a multiple of 4. Uses separate VMULPD +
// VADDPD (not FMA) so every element gets exactly the scalar semantics
// round(dst + round(alpha*src)) — the vector path is bit-identical to the
// pure-Go loop and the choice between them can never change a result.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y2
	MOVQ         n+24(FP), CX
	SHRQ         $2, CX
	JZ           axdone

axloop:
	VMOVUPD (SI), Y0
	VMULPD  Y2, Y0, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axloop

axdone:
	VZEROUPPER
	RET

// func csrFMA32(acc, b *float64, ldb int, idx *int, vals *float64, n int)
//
// Register-resident FMA chains over one k-block of a sparse row:
// acc[0:32] = fma(vals[e], b[idx[e]*ldb : +32], acc) for e = 0..n-1 in
// order. Eight YMM accumulators hold the 32 cells across all n entries,
// so each cell takes exactly the single-rounding steps of the 4×8
// micro-kernels' chains, without touching memory between entries.
TEXT ·csrFMA32(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	MOVQ idx+24(FP), R9
	MOVQ vals+32(FP), R10
	MOVQ n+40(FP), CX
	SHLQ $3, R8
	TESTQ CX, CX
	JZ   f32done

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

f32loop:
	MOVQ         (R9), AX
	IMULQ        R8, AX
	LEAQ         (SI)(AX*1), DX
	VBROADCASTSD (R10), Y8
	VFMADD231PD  (DX), Y8, Y0
	VFMADD231PD  32(DX), Y8, Y1
	VFMADD231PD  64(DX), Y8, Y2
	VFMADD231PD  96(DX), Y8, Y3
	VFMADD231PD  128(DX), Y8, Y4
	VFMADD231PD  160(DX), Y8, Y5
	VFMADD231PD  192(DX), Y8, Y6
	VFMADD231PD  224(DX), Y8, Y7
	ADDQ         $8, R9
	ADDQ         $8, R10
	DECQ         CX
	JNZ          f32loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER

f32done:
	RET

// func csrFMA8(acc, b *float64, ldb int, idx *int, vals *float64, n int)
//
// csrFMA32 for an 8-cell strip: acc[0:8] in two YMM accumulators.
TEXT ·csrFMA8(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	MOVQ idx+24(FP), R9
	MOVQ vals+32(FP), R10
	MOVQ n+40(FP), CX
	SHLQ $3, R8
	TESTQ CX, CX
	JZ   f8done

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

f8loop:
	MOVQ         (R9), AX
	IMULQ        R8, AX
	LEAQ         (SI)(AX*1), DX
	VBROADCASTSD (R10), Y8
	VFMADD231PD  (DX), Y8, Y0
	VFMADD231PD  32(DX), Y8, Y1
	ADDQ         $8, R9
	ADDQ         $8, R10
	DECQ         CX
	JNZ          f8loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER

f8done:
	RET
