#include "textflag.h"
#include "go_asm.h"

#define WAY0 hopKernel_way
#define WAY1 (hopKernel_way+hopWay__size)

// HOP advances the walker in (slot s, hops h, base b) of way w by one
// forward: it jumps to done at the target or out of budget, and to near
// from a slot in the way's near bitset. Otherwise it forwards on port
// HashMix(b, h) & mask of s's row. It uses AX and R12 as scratch and
// reads adj from DX, fwd from BX, log2 d from CX and the HashMix constant
// from R13.
#define HOP(s, h, b, w, done, near) \
	CMPQ    s, w+hopWay_t(R14);         \ // at the target
	JEQ     done;                       \
	CMPQ    h, hopKernel_limit(R14);    \ // out of budget
	JGE     done;                       \
	MOVQ    s, AX;                      \ // s in the way's near bitset
	SHRQ    $6, AX;                     \
	MOVQ    w+hopWay_near(R14), R12;    \
	MOVQ    (R12)(AX*8), AX;            \
	BTQ     s, AX;                      \
	JCS     near;                       \
	MOVQ    h, AX;                      \ // HashMix(b, h) = Remix(b ^ h·K)
	IMULQ   R13, AX;                    \
	XORQ    b, AX;                      \
	ADDQ    R13, AX;                    \
	MOVQ    AX, R12;                    \
	SHRQ    $30, R12;                   \
	XORQ    R12, AX;                    \
	MOVQ    $0xbf58476d1ce4e5b9, R12;   \
	IMULQ   R12, AX;                    \
	MOVQ    AX, R12;                    \
	SHRQ    $27, R12;                   \
	XORQ    R12, AX;                    \
	MOVQ    $0x94d049bb133111eb, R12;   \
	IMULQ   R12, AX;                    \
	MOVQ    AX, R12;                    \
	SHRQ    $31, R12;                   \
	XORQ    R12, AX;                    \
	ANDQ    hopKernel_mask(R14), AX;    \ // s·d + port
	MOVQ    s, R12;                     \
	SHLQ    CX, R12;                    \
	ADDQ    R12, AX;                    \
	INCL    (BX)(s*4);                  \ // fwd[s]++, h++, s = adj[s·d + port]
	INCQ    h;                          \
	MOVLQZX (DX)(AX*4), s

// NEAR is HOP's near branch. A way with holders jumps to done, for the
// Go loop to take its last hop; any other is next to its target: count
// the forward and step onto it.
#define NEAR(s, h, w, done) \
	CMPQ w+hopWay_hold(R14), $0; \
	JNE  done;                   \
	INCL (BX)(s*4);              \
	INCQ h;                      \
	MOVQ w+hopWay_t(R14), s

// func hopTwo(k *hopKernel, one bool) int
//
// Way 0 lives in SI (slot), R8 (hops) and R10 (base), way 1 in DI, R9
// and R11; k stays in R14 and the target slots, near bitsets, mask and
// budget are read through it. With both ways on, an iteration is a hop
// of way 0 then a hop of way 1: their adjacency loads are independent,
// so the two walks overlap where one walk would wait on each load.
TEXT ·hopTwo(SB), NOSPLIT, $0-24
	MOVQ k+0(FP), R14
	MOVQ hopKernel_adj(R14), DX
	MOVQ hopKernel_fwd(R14), BX
	MOVQ hopKernel_shift(R14), CX
	MOVQ $0x9e3779b97f4a7c15, R13
	MOVQ WAY0+hopWay_s(R14), SI
	MOVQ WAY0+hopWay_hops(R14), R8
	MOVQ WAY0+hopWay_base(R14), R10
	CMPB one+8(FP), $0
	JNE  alone
	MOVQ WAY1+hopWay_s(R14), DI
	MOVQ WAY1+hopWay_hops(R14), R9
	MOVQ WAY1+hopWay_base(R14), R11

both:
	HOP(SI, R8, R10, WAY0, end0, near0)

way1:
	HOP(DI, R9, R11, WAY1, end1, near1)
	JMP both

near0:
	NEAR(SI, R8, WAY0, end0)
	JMP way1

near1:
	NEAR(DI, R9, WAY1, end1)
	JMP both

	// Either way's end writes both back.
end0:
	MOVQ $0, ret+16(FP)
	JMP  save1

end1:
	MOVQ $1, ret+16(FP)

save1:
	MOVQ DI, WAY1+hopWay_s(R14)
	MOVQ R9, WAY1+hopWay_hops(R14)
	JMP  save0

	// Way 0 alone.
alone:
	HOP(SI, R8, R10, WAY0, endAlone, nearAlone)
	JMP alone

nearAlone:
	NEAR(SI, R8, WAY0, endAlone)
	JMP alone

endAlone:
	MOVQ $0, ret+16(FP)

save0:
	MOVQ SI, WAY0+hopWay_s(R14)
	MOVQ R8, WAY0+hopWay_hops(R14)
	RET
