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
	// Guard u1 away from 0 so Log is finite.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * cosTurn(u2)
}

// Cephes polynomial coefficients for sine and cosine on [-π/4, π/4], as in
// Go's math/sin.go.
var (
	sinCoef = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCoef = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
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
	const (
		pi4A = 7.85398125648498535156e-1 // π/4 split into three parts
		pi4B = 3.77489470793079817668e-8
		pi4C = 2.69515142907905952645e-15
	)
	x := float64(2 * math.Pi * u)
	// Octant of x, rounded up to even so z is centred on zero:
	// j ∈ {0, 2, 4, 6, 8}, where 8 is the full turn (cos's j&7 == 0).
	j := uint64(float64(x * (4 / math.Pi)))
	j += j & 1
	y := float64(j)
	z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	zz := float64(z * z)
	ps, pc := sinCoef[0], cosCoef[0]
	for i := 1; i < len(sinCoef); i++ {
		ps = float64(ps*zz) + sinCoef[i]
		pc = float64(pc*zz) + cosCoef[i]
	}
	sin := z + float64(float64(z*zz)*ps)
	cos := 1.0 - float64(0.5*zz) + float64(float64(zz*zz)*pc)
	// Octants 2 and 6 take the sine polynomial; 2 and 4 negate.
	useSin := -((j >> 1) & 1)
	bits := math.Float64bits(cos)&^useSin | math.Float64bits(sin)&useSin
	bits ^= ((j>>1 ^ j>>2) & 1) << 63
	return math.Float64frombits(bits)
}

// LogNormal returns a sample of exp(N(mu, sigma)). The simulator's OS-noise
// model uses small lognormal CPI multipliers: noise is always positive and
// right-skewed, matching interference spikes (context switches, interrupts)
// better than symmetric noise.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
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
// from the stored normal for any draw whose σ differs. Filling a block in
// two independent loops lets the CPU overlap the Log and Exp chains that a
// single draw would wait on.
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

func (l *LogNormals) refill(sigma float64) {
	for i := range l.z {
		l.z[i] = l.r.Norm()
	}
	for i, z := range l.z {
		l.v[i] = math.Exp(sigma * z)
	}
	l.sigma = sigma
	l.left = logNormalBlock
}
