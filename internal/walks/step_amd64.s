#include "textflag.h"

// func cpuHasAVX512() bool
//
// AVX512F, AVX512DQ and POPCNT in the CPU, and the opmask and full ZMM
// state saved by the OS (XCR0 bits 1, 2, 5, 6, 7).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<27 | 1<<23), CX // OSXSAVE, POPCNT
	CMPL CX, $(1<<27 | 1<<23)
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<16 | 1<<17), BX // AVX512F, AVX512DQ
	CMPL BX, $(1<<16 | 1<<17)
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func stepCohortAVX512(toks []replayTok, death []uint64, row []int32, d int, x uint64) (done, live int)
//
// stepCohort eight tokens at a time over the leading multiple of eight
// of toks; see stepCohort for the contract. d must be below 2³².
//
// A block is two 64-byte loads of four 16-byte tokens {key, pos|idx<<32}
// each. The in-lane unpacks split it into a key vector and a pos|idx
// vector whose lanes hold tokens 0 4 1 5 2 6 3 7, and the same unpacks
// of the stepped vectors put the tokens back in order, 0-3 and 4-7.
TEXT ·stepCohortAVX512(SB), NOSPLIT, $0-104
	MOVQ  toks_base+0(FP), SI
	MOVQ  toks_len+8(FP), CX
	MOVQ  death_base+24(FP), DI
	MOVQ  row_base+48(FP), R8
	SHRQ  $3, CX              // blocks of eight
	MOVQ  CX, R11
	SHLQ  $3, R11             // done
	MOVQ  SI, BX              // &toks[0]
	MOVQ  SI, DX              // the compaction cursor, &toks[live]
	TESTQ CX, CX
	JZ    out

	VPBROADCASTQ x+80(FP), Z27
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z26
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z25
	VPBROADCASTQ d+72(FP), Z24
	MOVQ         $0xffffffff, AX
	VPBROADCASTQ AX, Z23      // the pos half of pos|idx
	MOVQ         $63, AX
	VPBROADCASTQ AX, Z22
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z21

loop:
	VMOVDQU64   (SI), Z0
	VMOVDQU64   64(SI), Z1
	VPUNPCKLQDQ Z1, Z0, Z2    // keys
	VPUNPCKHQDQ Z1, Z0, Z3    // pos|idx<<32
	VPANDQ      Z23, Z3, Z4   // pos

	// The live mask K3: a token whose slot is in the round's death bitset
	// is dropped. No bitset, no churn: every token lives.
	KXNORB     K3, K3, K3
	TESTQ      DI, DI
	JZ         step
	KXNORB     K1, K1, K1
	VPSRLQ     $6, Z4, Z5
	VPXORQ     Z6, Z6, Z6
	VPGATHERQQ (DI)(Z5*8), K1, Z6
	VPANDQ     Z22, Z4, Z5
	VPSRLVQ    Z5, Z6, Z6
	VPTESTNMQ  Z21, Z6, K3

step:
	// h = stepFinish(x ^ key).
	VPXORQ  Z27, Z2, Z7
	VPSRLQ  $30, Z7, Z8
	VPXORQ  Z8, Z7, Z7
	VPMULLQ Z26, Z7, Z7
	VPSRLQ  $27, Z7, Z8
	VPXORQ  Z8, Z7, Z7
	VPMULLQ Z25, Z7, Z7
	VPSRLQ  $31, Z7, Z8
	VPXORQ  Z8, Z7, Z7

	// port = hi64(h·d) = (hi32(h)·d + (lo32(h)·d >> 32)) >> 32, exact for
	// d < 2³², the sum staying below 2⁶⁴.
	VPMULUDQ Z24, Z7, Z8
	VPSRLQ   $32, Z8, Z8
	VPSRLQ   $32, Z7, Z9
	VPMULUDQ Z24, Z9, Z9
	VPADDQ   Z8, Z9, Z9
	VPSRLQ   $32, Z9, Z9

	// The new pos, row[pos·d + port], gathered for live tokens only.
	VPMULUDQ   Z24, Z4, Z10
	VPADDQ     Z9, Z10, Z10
	KMOVB      K3, K2
	VPXORQ     Z11, Z11, Z11
	VPGATHERQD (R8)(Z10*4), K2, Y11
	VPMOVZXDQ  Y11, Z12
	VPANDNQ    Z3, Z23, Z13   // idx<<32
	VPORQ      Z12, Z13, Z13

	VPUNPCKLQDQ Z13, Z2, Z14  // tokens 0-3
	VPUNPCKHQDQ Z13, Z2, Z15  // tokens 4-7

	// Compact the live tokens in place. Tokens 0-3 sit in the even lanes
	// of K3 and 4-7 in the odd ones; masked with 0x55 and times 3, each
	// half's bits are doubled to select both qwords of a live token. The
	// two full 64-byte stores end at or before the end of the 128 bytes
	// just loaded, as DX never passes SI: a store may overwrite a token
	// already read, never one not yet read.
	KMOVB         K3, AX
	MOVL          AX, R10
	ANDL          $0x55, R10
	LEAL          (R10)(R10*2), R10
	KMOVB         R10, K4
	POPCNTL       R10, R10   // qwords kept of tokens 0-3
	SHRL          $1, AX
	ANDL          $0x55, AX
	LEAL          (AX)(AX*2), AX
	KMOVB         AX, K5
	POPCNTL       AX, AX     // qwords kept of tokens 4-7
	VPCOMPRESSQ.Z Z14, K4, Z16
	VPCOMPRESSQ.Z Z15, K5, Z17
	VMOVDQU64     Z16, (DX)
	VMOVDQU64     Z17, (DX)(R10*8)
	ADDQ          AX, R10
	LEAQ          (DX)(R10*8), DX

	ADDQ $128, SI
	DECQ CX
	JNZ  loop
	VZEROUPPER

out:
	SUBQ BX, DX
	SHRQ $4, DX
	MOVQ R11, done+88(FP)
	MOVQ DX, live+96(FP)
	RET
