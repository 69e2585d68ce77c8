#include "textflag.h"
#include "go_asm.h"

// func normalsExpAVX2(z, v *[64]float64, sigma float64)
//
// normalsExpGo four lanes at a time, in three passes over the block so that
// each pass's long chains (the division and square root, then the
// polynomials) overlap across chunks. Each group of instructions computes
// the Go statement or exp_amd64.s instructions in the comment above it, in
// the same association order. Only the exp pass fuses, where
// exp_amd64.s's avxfma block fuses.
TEXT ·normalsExpAVX2(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ v+8(FP), SI
	LEAQ ·normalsConsts(SB), R8 // normalsTable_f(R8) is field f

	// Pass 1, z[i] = math.Sqrt(-2*logUnit(u1)).
	XORQ CX, CX

logLoop:
	VMOVUPD (DI)(CX*1), Y0
	// f1b := b&(1<<52-1) | math.Float64bits(0.5)
	VANDPD normalsTable_mantMask(R8), Y0, Y1
	VORPD  normalsTable_half(R8), Y1, Y1
	// k := float64(int64(b>>52&0x7ff) - 0x3fe); u1 > 0, so b>>52 is the
	// exponent field.
	VPSRLQ $52, Y0, Y2
	VPOR   normalsTable_magic(R8), Y2, Y2
	VSUBPD normalsTable_kBias(R8), Y2, Y2
	// notGt := (math.Float64bits(math.Sqrt2/2)-f1b)>>63 - 1
	VMOVUPD normalsTable_sqrtHalf(R8), Y3
	VPSUBQ  Y1, Y3, Y3
	VPSRLQ  $63, Y3, Y3
	VPSUBQ  normalsTable_intOne(R8), Y3, Y3
	// t := math.Float64frombits(notGt & math.Float64bits(1)); k -= t
	VANDPD normalsTable_one(R8), Y3, Y3
	VSUBPD Y3, Y2, Y2
	// f := float64(math.Float64frombits(f1b)*(t+1)) - 1
	VADDPD normalsTable_one(R8), Y3, Y3
	VMULPD Y3, Y1, Y1
	VSUBPD normalsTable_one(R8), Y1, Y1
	// s := f / (2 + f)
	VADDPD normalsTable_two(R8), Y1, Y3
	VDIVPD Y3, Y1, Y3
	// s2 := float64(s * s); s4 := float64(s2 * s2)
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5
	// t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	VMULPD normalsTable_l7(R8), Y5, Y6
	VADDPD normalsTable_l5(R8), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD normalsTable_l3(R8), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD normalsTable_l1(R8), Y6, Y6
	VMULPD Y4, Y6, Y6
	// t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	VMULPD normalsTable_l6(R8), Y5, Y7
	VADDPD normalsTable_l4(R8), Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD normalsTable_l2(R8), Y7, Y7
	VMULPD Y5, Y7, Y7
	// hfsq := float64(float64(0.5*f) * f)
	VMULPD normalsTable_half(R8), Y1, Y8
	VMULPD Y1, Y8, Y8
	// float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+(t1+t2))) + float64(k*ln2Lo))) - f)
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y8, Y6
	VMULPD Y6, Y3, Y6
	VMULPD normalsTable_ln2Lo(R8), Y2, Y7
	VADDPD Y7, Y6, Y6
	VSUBPD Y6, Y8, Y6
	VSUBPD Y1, Y6, Y6
	VMULPD normalsTable_ln2Hi(R8), Y2, Y2
	VSUBPD Y6, Y2, Y2
	// math.Sqrt(-2*logUnit(u1))
	VMULPD  normalsTable_negTwo(R8), Y2, Y2
	VSQRTPD Y2, Y2
	VMOVUPD Y2, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, $(8*64)
	JB      logLoop

	// Pass 2, z[i] *= cosTurn(u2).
	XORQ  CX, CX
	VPXOR Y15, Y15, Y15

cosLoop:
	// x := float64(2 * math.Pi * u)
	VMOVUPD (SI)(CX*1), Y0
	VMULPD  normalsTable_twoPi(R8), Y0, Y0
	// j := uint64(float64(x * (4 / math.Pi))); j += j & 1; y := float64(j)
	VMULPD     normalsTable_fourByPi(R8), Y0, Y1
	VCVTTPD2DQY Y1, X1
	VPMOVZXDQ  X1, Y1
	VPAND      normalsTable_intOne(R8), Y1, Y2
	VPADDQ     Y2, Y1, Y1
	VPOR       normalsTable_magic(R8), Y1, Y2
	VSUBPD     normalsTable_magic(R8), Y2, Y2
	// z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	VMULPD normalsTable_pi4A(R8), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD normalsTable_pi4B(R8), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD normalsTable_pi4C(R8), Y2, Y3
	VSUBPD Y3, Y0, Y0
	// zz := float64(z * z)
	VMULPD Y0, Y0, Y2
	// odd := (j >> 1) & 1; useSin := -odd
	VPSRLQ $1, Y1, Y3
	VPAND  normalsTable_intOne(R8), Y3, Y3
	VPSUBQ Y3, Y15, Y3
	// p := c[0]; p = float64(p*zz) + c[i], c = &turnCoef[odd]
	VMOVUPD   normalsTable_cosP(R8), Y4
	VBLENDVPD Y3, normalsTable_sinP(R8), Y4, Y4
	VMOVUPD   normalsTable_cosP+32(R8), Y5
	VBLENDVPD Y3, normalsTable_sinP+32(R8), Y5, Y5
	VMULPD    Y2, Y4, Y4
	VADDPD    Y5, Y4, Y4
	VMOVUPD   normalsTable_cosP+64(R8), Y5
	VBLENDVPD Y3, normalsTable_sinP+64(R8), Y5, Y5
	VMULPD    Y2, Y4, Y4
	VADDPD    Y5, Y4, Y4
	VMOVUPD   normalsTable_cosP+96(R8), Y5
	VBLENDVPD Y3, normalsTable_sinP+96(R8), Y5, Y5
	VMULPD    Y2, Y4, Y4
	VADDPD    Y5, Y4, Y4
	VMOVUPD   normalsTable_cosP+128(R8), Y5
	VBLENDVPD Y3, normalsTable_sinP+128(R8), Y5, Y5
	VMULPD    Y2, Y4, Y4
	VADDPD    Y5, Y4, Y4
	VMOVUPD   normalsTable_cosP+160(R8), Y5
	VBLENDVPD Y3, normalsTable_sinP+160(R8), Y5, Y5
	VMULPD    Y2, Y4, Y4
	VADDPD    Y5, Y4, Y4
	// zb := math.Float64bits(z) & useSin
	VANDPD Y3, Y0, Y5
	// a := math.Float64frombits(math.Float64bits(1.0-float64(0.5*zz))&^useSin | zb)
	VMULPD  normalsTable_half(R8), Y2, Y6
	VMOVUPD normalsTable_one(R8), Y7
	VSUBPD  Y6, Y7, Y6
	VANDNPD Y6, Y3, Y6
	VORPD   Y5, Y6, Y6
	// bz := math.Float64frombits(math.Float64bits(zz)&^useSin | zb)
	VANDNPD Y2, Y3, Y7
	VORPD   Y5, Y7, Y7
	// bits := math.Float64bits(a + float64(float64(bz*zz)*p))
	VMULPD Y2, Y7, Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y6, Y6
	// bits ^= ((j>>1 ^ j>>2) & 1) << 63
	VPSRLQ $1, Y1, Y7
	VPSRLQ $2, Y1, Y8
	VPXOR  Y8, Y7, Y7
	VPSLLQ $63, Y7, Y7
	VPXOR  Y7, Y6, Y6
	// math.Sqrt(-2*logUnit(u1)) * cosTurn(u2)
	VMULPD  (DI)(CX*1), Y6, Y6
	VMOVUPD Y6, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, $(8*64)
	JB      cosLoop

	// Pass 3, v[i] = math.Exp(sigma * z[i]) by exp_amd64.s's avxfma path.
	// |sigma·z| < 700, so its not-finite, overflow and denormal branches
	// are never taken.
	VBROADCASTSD sigma+16(FP), Y15
	XORQ         CX, CX

expLoop:
	VMULPD (DI)(CX*1), Y15, Y0
	// MULSD X0, X1 (X1 = LOG2E); CVTSD2SL X1, BX; CVTSL2SD BX, X1
	VMULPD      normalsTable_log2e(R8), Y0, Y1
	VCVTPD2DQY  Y1, X1
	VCVTDQ2PD   X1, Y2
	VPMOVSXDQ   X1, Y1
	// VFNMADD231SD X2, X1, X0 with LN2U, then with LN2L
	VFNMADD231PD normalsTable_ln2U(R8), Y2, Y0
	VFNMADD231PD normalsTable_ln2L(R8), Y2, Y0
	// MULSD $0.0625, X0
	VMULPD normalsTable_sixteenth(R8), Y0, Y0
	// MOVSD exprodata<>+64(SB), X1; VFMADD213SD exprodata<>+56…+8(SB), X0, X1
	VMOVUPD     normalsTable_expP(R8), Y2
	VFMADD213PD normalsTable_expP+32(R8), Y0, Y2
	VFMADD213PD normalsTable_expP+64(R8), Y0, Y2
	VFMADD213PD normalsTable_expP+96(R8), Y0, Y2
	VFMADD213PD normalsTable_expP+128(R8), Y0, Y2
	VFMADD213PD normalsTable_expP+160(R8), Y0, Y2
	VFMADD213PD normalsTable_expP+192(R8), Y0, Y2
	VFMADD213PD normalsTable_expP+224(R8), Y0, Y2
	// MULSD X1, X0; VADDSD exprodata<>+16(SB), X0, X1, four times
	VMULPD Y2, Y0, Y0
	VADDPD normalsTable_two(R8), Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD normalsTable_two(R8), Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD normalsTable_two(R8), Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD normalsTable_two(R8), Y0, Y2
	// VFMADD213SD exprodata<>+8(SB), X1, X0
	VFMADD213PD normalsTable_one(R8), Y2, Y0
	// ldexp: ADDL $0x3FF, BX; SHLQ $52, BX; MULSD X1, X0
	VPADDQ  normalsTable_expBias(R8), Y1, Y1
	VPSLLQ  $52, Y1, Y1
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, $(8*64)
	JB      expLoop

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
