package sim

import "math"

// haveAVX2FMA reports whether normalsExpAVX2 can run here: the CPU has AVX,
// AVX2 and FMA, the OS saves YMM state, and math.Exp takes the FMA path
// the kernel transcribes.
var haveAVX2FMA = detectAVX2FMA() && expTakesFMAPath()

// kernelSigmaMax bounds the σ normalsExpAVX2 is given. A guarded u1 gives
// |z| ≤ √(−2 ln 1e−300) ≈ 37.2, so |σ·z| stays below 18·37.2 ≈ 670 < 700,
// and the kernel's exp never needs exp_amd64.s's overflow or denormal
// branches.
const kernelSigmaMax = 18

// normalsExp turns the uniforms in z (u1) and v (u2) into normals in z and
// their lognormals exp(sigma·z) in v. Where the kernel can run it gives the
// same bits as normalsExpGo, four lanes at a time.
func normalsExp(z, v *[logNormalBlock]float64, sigma float64) {
	if haveAVX2FMA && math.Abs(sigma) < kernelSigmaMax {
		normalsExpAVX2(z, v, sigma)
		return
	}
	normalsExpGo(z, v, sigma)
}

// normalsExpAVX2 is normalsExpGo in AVX2 and FMA: boxMuller's logUnit,
// math.Sqrt and cosTurn without fusing, then exp_amd64.s's FMA path,
// fused exactly where it fuses. That is the path math.Exp takes on every
// CPU that has FMA. It needs haveAVX2FMA and |sigma| < kernelSigmaMax.
//
//go:noescape
func normalsExpAVX2(z, v *[logNormalBlock]float64, sigma float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectAVX2FMA() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymm     = 1<<1 | 1<<2
	)
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and AVX halves of YMM.
	if xcr0, _ := xgetbv(); xcr0&ymm != ymm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// expTakesFMAPath reports whether math.Exp runs exp_amd64.s's FMA path.
// CPUID alone does not say: GODEBUG=cpu.fma=off sends math.Exp down its
// SSE path on a CPU with FMA. The two paths differ in the last bit here.
func expTakesFMAPath() bool {
	return math.Float64bits(math.Exp(math.Float64frombits(0xbfa5c8e36f69506b))) == 0x3feeaac1713df645
}

// lanes is one constant of the kernel in each of a YMM register's four
// lanes, so that an instruction can take it as a memory operand.
type lanes [4]uint64

func f4(x float64) lanes { return u4(math.Float64bits(x)) }
func u4(b uint64) lanes  { return lanes{b, b, b, b} }

// normalsTable holds every constant normalsExpAVX2 reads. The assembly
// addresses its fields through go_asm.h, and normalsConsts spells each
// value with the Go code's own expression, so none is written twice.
type normalsTable struct {
	one, two, half, negTwo lanes
	intOne                 lanes // the integer 1
	magic                  lanes // 2⁵²: or a small integer into its bits, subtract it, and the integer is a float
	kBias                  lanes // 2⁵² + 0x3fe: logUnit's k from its exponent bits
	mantMask, sqrtHalf     lanes // logUnit's bit masks
	ln2Hi, ln2Lo           lanes
	l1, l2, l3, l4         lanes
	l5, l6, l7             lanes
	twoPi, fourByPi        lanes // cosTurn's 2·π and 4/π
	pi4A, pi4B, pi4C       lanes
	cosP, sinP             [6]lanes // turnCoef's rows
	log2e, ln2U, ln2L      lanes    // exp_amd64.s's LOG2E, LN2U and LN2L
	sixteenth              lanes    // exp_amd64.s's argument reduction
	expP                   [8]lanes // exp_amd64.s's Taylor coefficients, in evaluation order
	expBias                lanes    // the integer 0x3ff
}

var normalsConsts = normalsTable{
	one: f4(1), two: f4(2), half: f4(0.5), negTwo: f4(-2),
	intOne:   u4(1),
	magic:    f4(0x1p52),
	kBias:    f4(0x1p52 + 0x3fe),
	mantMask: u4(1<<52 - 1), sqrtHalf: f4(math.Sqrt2 / 2),
	ln2Hi: f4(ln2Hi), ln2Lo: f4(ln2Lo),
	l1: f4(l1), l2: f4(l2), l3: f4(l3), l4: f4(l4), l5: f4(l5), l6: f4(l6), l7: f4(l7),
	twoPi: f4(2 * math.Pi), fourByPi: f4(4 / math.Pi),
	pi4A: f4(pi4A), pi4B: f4(pi4B), pi4C: f4(pi4C),
	cosP:      lanesOf(turnCoef[0][:]),
	sinP:      lanesOf(turnCoef[1][:]),
	log2e:     f4(1.4426950408889634073599246810018920),
	ln2U:      f4(0.69314718055966295651160180568695068359375),
	ln2L:      f4(0.28235290563031577122588448175013436025525412068e-12),
	sixteenth: f4(0.0625),
	expP: [8]lanes{
		f4(2.4801587301587301587e-5), f4(1.9841269841269841270e-4),
		f4(1.3888888888888888889e-3), f4(8.3333333333333333333e-3),
		f4(4.1666666666666666667e-2), f4(1.6666666666666666667e-1),
		f4(0.5), f4(1.0),
	},
	expBias: u4(0x3ff),
}

func lanesOf(c []float64) (l [6]lanes) {
	for i, x := range c {
		l[i] = f4(x)
	}
	return l
}
