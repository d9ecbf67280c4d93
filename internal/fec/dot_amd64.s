#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 needs CPUID leaf 7 (EBX bit 5), and the OS must save YMM state:
// CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and XCR0 has the
// SSE and AVX state bits (mask 6) set.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func dotAVX2(out []byte, srcs [][]byte, coef []byte)
//
// For each 32-byte chunk of out, the sum over all sources accumulates in
// Y0 and is stored once. Per source: load 32 bytes, split them into low
// and high nibbles, look each half up in the coefficient's 16-entry table
// (broadcast to both lanes) with VPSHUFB, and fold both into Y0. A ragged
// tail is one more chunk ending at len(out); it overlaps the previous one,
// which is harmless because chunks are stored, not accumulated.
TEXT ·dotAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), DX
	MOVQ srcs_base+24(FP), SI
	MOVQ srcs_len+32(FP), R8
	MOVQ coef_base+48(FP), R9
	LEAQ ·nibbleTables(SB), R10
	SUBQ $32, DX           // DX = offset of the last chunk
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X5
	VPBROADCASTQ X5, Y5    // Y5 = low-nibble mask
	XORQ AX, AX            // AX = chunk offset

chunk:
	VPXOR Y0, Y0, Y0
	MOVQ SI, R11           // R11 = &srcs[j]
	XORQ BX, BX            // BX = j

source:
	MOVQ    (R11), R12     // srcs[j] base
	MOVBQZX (R9)(BX*1), R13
	SHLQ    $5, R13        // R13 = coef[j]'s table offset
	VMOVDQU (R12)(AX*1), Y1
	VPSRLQ  $4, Y1, Y2
	VPAND   Y5, Y1, Y1
	VPAND   Y5, Y2, Y2
	VBROADCASTI128 (R10)(R13*1), Y3
	VBROADCASTI128 16(R10)(R13*1), Y4
	VPSHUFB Y1, Y3, Y3
	VPSHUFB Y2, Y4, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   Y3, Y0, Y0
	ADDQ    $24, R11
	INCQ    BX
	CMPQ    BX, R8
	JB      source

	VMOVDQU Y0, (DI)(AX*1)
	CMPQ AX, DX
	JAE  done
	ADDQ $32, AX
	CMPQ AX, DX
	JBE  chunk
	MOVQ DX, AX            // ragged tail
	JMP  chunk

done:
	VZEROUPPER
	RET
