//go:build amd64 && !purego

#include "textflag.h"

// func detectAVX2() bool
//
// OSXSAVE ∧ AVX (leaf 1 ECX bits 27, 28), the OS saving XMM and YMM state
// (XCR0 bits 1, 2), and AVX2 (leaf 7 EBX bit 5). Every CPU that reports
// AVX enumerates leaf 7, so the maximum leaf is not consulted.
TEXT ·detectAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// LOADMASK fills Y8 with 0x0f bytes, the nibble mask.
#define LOADMASK \
	MOVQ         $0x0f0f0f0f0f0f0f0f, AX; \
	MOVQ         AX, X8;                  \
	VPBROADCASTQ X8, Y8

// SPLIT loads 32 bytes of source j (slice header at (SI)(R10*1)) at byte
// offset BX and leaves their low nibbles in Y4 and high nibbles in Y5.
#define SPLIT \
	MOVQ    (SI)(R10*1), R12; \
	VMOVDQU (R12)(BX*1), Y4;  \
	VPSRLQ  $4, Y4, Y5;       \
	VPAND   Y8, Y4, Y4;       \
	VPAND   Y8, Y5, Y5

// MULADD accumulates T·(Y4, Y5) into acc, T the 32-byte nibble table at
// o(R11): sixteen low-nibble products, then sixteen high-nibble products.
#define MULADD(o, acc) \
	VBROADCASTI128 o(R11), Y6;    \
	VBROADCASTI128 o+16(R11), Y7; \
	VPSHUFB        Y4, Y6, Y6;    \
	VPSHUFB        Y5, Y7, Y7;    \
	VPXOR          Y6, acc, acc;  \
	VPXOR          Y7, acc, acc

// func dotRowAVX2(tab *nibTab, srcs [][]byte, dst []byte, off, n int, acc bool)
//
// dst[off:off+n] (^)= Σ_j tab[j]·srcs[j][off:off+n], 32 bytes per step:
// every source of a position is read before the position is written, so
// dst may be one of the sources. n is a positive multiple of 32 and the
// caller has checked off+n against every slice.
TEXT ·dotRowAVX2(SB), NOSPLIT, $0-73
	MOVQ    tab+0(FP), DI
	MOVQ    srcs_base+8(FP), SI
	MOVQ    srcs_len+16(FP), R8
	MOVQ    dst_base+32(FP), DX
	MOVQ    off+56(FP), BX
	MOVQ    n+64(FP), CX
	MOVBQZX acc+72(FP), R9
	ADDQ    BX, CX
	LEAQ    (R8)(R8*2), R8
	SHLQ    $3, R8                // bytes of slice headers: 24·len(srcs)
	LOADMASK

row1pos:
	VPXOR   Y0, Y0, Y0
	TESTQ   R9, R9
	JZ      row1first
	VMOVDQU (DX)(BX*1), Y0

row1first:
	XORQ R10, R10
	MOVQ DI, R11

row1src:
	SPLIT
	MULADD(0, Y0)
	ADDQ $32, R11
	ADDQ $24, R10
	CMPQ R10, R8
	JB   row1src
	VMOVDQU Y0, (DX)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      row1pos
	VZEROUPPER
	RET

// func dotRow4AVX2(tab *[4]nibTab, srcs [][]byte, dsts *[4][]byte, off, n int)
//
// dsts[r][off:off+n] = Σ_j tab[j][r]·srcs[j][off:off+n] for four rows at
// once: one load and one nibble split of each source serve all four.
// Same contract as dotRowAVX2; the destinations are overwritten.
TEXT ·dotRow4AVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), DI
	MOVQ srcs_base+8(FP), SI
	MOVQ srcs_len+16(FP), R8
	MOVQ dsts+32(FP), DX
	MOVQ off+40(FP), BX
	MOVQ n+48(FP), CX
	ADDQ BX, CX
	LEAQ (R8)(R8*2), R8
	SHLQ $3, R8
	LOADMASK
	MOVQ 0(DX), AX
	MOVQ 24(DX), R9
	MOVQ 48(DX), R13
	MOVQ 72(DX), DX

row4pos:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  R10, R10
	MOVQ  DI, R11

row4src:
	SPLIT
	MULADD(0, Y0)
	MULADD(32, Y1)
	MULADD(64, Y2)
	MULADD(96, Y3)
	ADDQ $128, R11
	ADDQ $24, R10
	CMPQ R10, R8
	JB   row4src
	VMOVDQU Y0, (AX)(BX*1)
	VMOVDQU Y1, (R9)(BX*1)
	VMOVDQU Y2, (R13)(BX*1)
	VMOVDQU Y3, (DX)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      row4pos
	VZEROUPPER
	RET

// func xorAVX2(srcs [][]byte, dst []byte, off, n int)
//
// dst[off:off+n] = ⊕_j srcs[j][off:off+n]: 128 bytes (four YMM
// accumulators) per step while they fit, then 32 bytes per step. Every
// source of a position is read before the position is written, so dst may
// be one of the sources. len(srcs) ≥ 1, n is a positive multiple of 32 and
// the caller has checked off+n against every slice.
TEXT ·xorAVX2(SB), NOSPLIT, $0-64
	MOVQ srcs_base+0(FP), SI
	MOVQ srcs_len+8(FP), R8
	MOVQ dst_base+24(FP), DX
	MOVQ off+48(FP), BX
	MOVQ n+56(FP), CX
	ADDQ BX, CX
	LEAQ (R8)(R8*2), R8
	SHLQ $3, R8                // bytes of slice headers: 24·len(srcs)
	MOVQ (SI), R11             // srcs[0] seeds the accumulators

xor128pos:
	LEAQ    128(BX), R9
	CMPQ    R9, CX
	JA      xor32pos
	VMOVDQU (R11)(BX*1), Y0
	VMOVDQU 32(R11)(BX*1), Y1
	VMOVDQU 64(R11)(BX*1), Y2
	VMOVDQU 96(R11)(BX*1), Y3
	MOVQ    $24, R10

xor128src:
	CMPQ  R10, R8
	JAE   xor128store
	MOVQ  (SI)(R10*1), R12
	VPXOR (R12)(BX*1), Y0, Y0
	VPXOR 32(R12)(BX*1), Y1, Y1
	VPXOR 64(R12)(BX*1), Y2, Y2
	VPXOR 96(R12)(BX*1), Y3, Y3
	ADDQ  $24, R10
	JMP   xor128src

xor128store:
	VMOVDQU Y0, (DX)(BX*1)
	VMOVDQU Y1, 32(DX)(BX*1)
	VMOVDQU Y2, 64(DX)(BX*1)
	VMOVDQU Y3, 96(DX)(BX*1)
	MOVQ    R9, BX
	JMP     xor128pos

xor32pos:
	CMPQ    BX, CX
	JAE     xordone
	VMOVDQU (R11)(BX*1), Y0
	MOVQ    $24, R10

xor32src:
	CMPQ  R10, R8
	JAE   xor32store
	MOVQ  (SI)(R10*1), R12
	VPXOR (R12)(BX*1), Y0, Y0
	ADDQ  $24, R10
	JMP   xor32src

xor32store:
	VMOVDQU Y0, (DX)(BX*1)
	ADDQ    $32, BX
	JMP     xor32pos

xordone:
	VZEROUPPER
	RET
