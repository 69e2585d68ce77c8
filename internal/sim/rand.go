package sim

import "math"

// Rand is a deterministic pseudo-random source (xoshiro256**). Every source
// of randomness in the simulator — OS-noise jitter, phase perturbation,
// rotate-BG selection — draws from one of these, derived from a single
// experiment seed, so full paper sweeps reproduce bit-for-bit. We do not use
// math/rand: its global state and version-dependent stream would break
// reproducibility guarantees across Go releases.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via SplitMix64, which maps
// any seed (including 0) to a well-mixed full state.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Split derives an independent child generator; use it to give each
// component its own stream so that adding draws in one component does not
// shift the stream of another.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample via the Box–Muller transform.
func (r *Rand) Norm() float64 {
	return boxMuller(r.guardedUnit(), r.Float64())
}

// guardedUnit returns Box–Muller's u1: a uniform draw guarded away from 0
// so its logarithm is finite.
func (r *Rand) guardedUnit() float64 {
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return u1
}

// boxMuller returns the cosine half of the Box–Muller transform of u1 in
// [1e-300, 1) and u2 in [0, 1).
func boxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*logUnit(u1)) * cosTurn(u2)
}

// logUnit's constants, log_amd64.s's: ln 2 split in two, and the
// coefficients of its polynomial in s = f/(2+f).
const (
	ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	l1    = 6.666666666666735130e-01   // 0x3FE5555555555593
	l2    = 3.999999999940941908e-01   // 0x3FD999999997FA04
	l3    = 2.857142874366239149e-01   // 0x3FD2492494229359
	l4    = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	l5    = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	l6    = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	l7    = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
)

// logUnit returns math.Log(x) for a normal x in (0, 1) bit for bit on
// amd64: it is log_amd64.s step for step, less the special cases Norm's u1
// never hits. Every product is an explicit float64 conversion, so it gives
// the same bits on every architecture (math.Log does not: arm64 runs
// log.go with fused multiply-adds, s390x its own assembly).
func logUnit(x float64) float64 {
	// Frexp by bit masks: x = f1·2^k with f1 in [0.5, 1).
	b := math.Float64bits(x)
	f1b := b&(1<<52-1) | math.Float64bits(0.5)
	k := float64(int64(b>>52&0x7ff) - 0x3fe)
	// Where !(√2/2 < f1) (the assembly's test; log.go's f1 < √2/2 differs at
	// √2/2), take k−1 and 2·f1. Positive floats order as their bits, so the
	// test is a sign bit and the select masks the bits of 1.
	notGt := (math.Float64bits(math.Sqrt2/2)-f1b)>>63 - 1
	t := math.Float64frombits(notGt & math.Float64bits(1))
	k -= t
	f := float64(math.Float64frombits(f1b)*(t+1)) - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+(t1+t2))) + float64(k*ln2Lo))) - f)
}

// Cephes polynomial coefficients on [-π/4, π/4], as in Go's math/sin.go:
// row 0 for cosine, row 1 for sine.
var turnCoef = [2][6]float64{{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}, {
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}}

// π/4 split into three parts, for cosTurn's reduction.
const (
	pi4A = 7.85398125648498535156e-1
	pi4B = 3.77489470793079817668e-8
	pi4C = 2.69515142907905952645e-15
)

// cosTurn returns math.Cos(2*math.Pi*u) for u in [0, 1), bit for bit on
// amd64, where math.Cos is Go's portable cos and nothing is fused. It is
// that function's reduction and polynomials with the octant branches
// replaced by bit selects: a uniform angle lands in each octant equally
// often, so those branches mispredict on most calls. Every product is an
// explicit float64 conversion, which keeps the compiler from fusing it into
// a multiply-add, so cosTurn returns the same bits on every architecture
// (math.Cos does not: it fuses on arm64, ppc64le, s390x and riscv64).
func cosTurn(u float64) float64 {
	x := float64(2 * math.Pi * u)
	// Octant of x, rounded up to even so z is centred on zero:
	// j ∈ {0, 2, 4, 6, 8}, where 8 is the full turn (cos's j&7 == 0).
	j := uint64(float64(x * (4 / math.Pi)))
	j += j & 1
	y := float64(j)
	z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	zz := float64(z * z)
	// Octants 2 and 6 take sin = z + (z·zz)·P, the others cos = (1 − zz/2) +
	// (zz·zz)·P: the octant selects P's row and, by bit mask, a + (b·zz)·P's
	// a and b. Octants 2 and 4 negate.
	odd := (j >> 1) & 1
	c := &turnCoef[odd]
	p := c[0]
	for i := 1; i < len(c); i++ {
		p = float64(p*zz) + c[i]
	}
	useSin := -odd
	zb := math.Float64bits(z) & useSin
	a := math.Float64frombits(math.Float64bits(1.0-float64(0.5*zz))&^useSin | zb)
	bz := math.Float64frombits(math.Float64bits(zz)&^useSin | zb)
	bits := math.Float64bits(a + float64(float64(bz*zz)*p))
	bits ^= ((j>>1 ^ j>>2) & 1) << 63
	return math.Float64frombits(bits)
}

// LogNormal returns a sample of exp(N(mu, sigma)). The simulator's OS-noise
// model uses small lognormal CPI multipliers: noise is always positive and
// right-skewed, matching interference spikes (context switches, interrupts)
// better than symmetric noise. float64 keeps the product unfused.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.Norm()))
}

// logNormalBlock is how many normals LogNormals draws ahead. 16 and 128
// measured the same; the block only has to be long enough for the Exp
// chains to overlap.
const logNormalBlock = 64

// LogNormals draws lognormal multipliers exp(N(0, σ)) from a stream it owns,
// a block at a time. Draw returns exactly what r.LogNormal(0, sigma) would
// return at the same point of r's stream: every draw takes two uniforms
// whatever σ is, so drawing normals ahead changes no value, and the values
// of a block are computed with the σ of the draw that filled it, recomputed
// from the stored normal for any draw whose σ differs. Filling a whole
// block lets the CPU overlap the Log and Exp chains that a single draw
// would wait on, and lets normalsExp work four lanes at a time.
type LogNormals struct {
	r     *Rand
	left  int     // unread values in the block; 0 means refill
	sigma float64 // σ the block's values were computed with
	z     [logNormalBlock]float64
	v     [logNormalBlock]float64
}

// NewLogNormals returns a sampler that owns r: nothing else may draw from r
// afterwards, or the two would share one stream.
func NewLogNormals(r *Rand) LogNormals { return LogNormals{r: r} }

// Draw returns the next sample of exp(N(0, sigma)).
func (l *LogNormals) Draw(sigma float64) float64 {
	if l.left == 0 {
		l.refill(sigma)
	}
	i := logNormalBlock - l.left
	l.left--
	if math.Float64bits(sigma) != math.Float64bits(l.sigma) {
		return math.Exp(sigma * l.z[i])
	}
	return l.v[i]
}

// refill draws the block's uniforms in Norm's order, u1 into z and u2 into
// v, then turns them into normals and their lognormals in place.
func (l *LogNormals) refill(sigma float64) {
	for i := range l.z {
		l.z[i] = l.r.guardedUnit()
		l.v[i] = l.r.Float64()
	}
	normalsExp(&l.z, &l.v, sigma)
	l.sigma = sigma
	l.left = logNormalBlock
}

// normalsExpGo is normalsExp in Go: z holds u1 and v holds u2 on entry,
// and the normals and exp(sigma·z) on return. It is the path on every CPU
// without the amd64 kernel, and the kernel's reference.
func normalsExpGo(z, v *[logNormalBlock]float64, sigma float64) {
	for i := range z {
		z[i] = boxMuller(z[i], v[i])
	}
	for i := range v {
		v[i] = math.Exp(sigma * z[i])
	}
}
