package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRandZeroSeedWorks(t *testing.T) {
	r := NewRand(0)
	// A zero xoshiro state would emit all zeros; SplitMix64 seeding must
	// prevent that.
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRand(11)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d has fraction %.3f, want ~0.1", i, frac)
		}
	}
}

func TestIntn(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(4)
		if v < 0 || v >= 4 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("Intn(4) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRand(5)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %g, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			if r.LogNormal(0, 0.1) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogNormalMedian(t *testing.T) {
	// Median of LogNormal(mu, sigma) is exp(mu); check via sampling.
	r := NewRand(9)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(0.5, 0.3)
	}
	below := 0
	want := math.Exp(0.5)
	for _, x := range xs {
		if x < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below exp(mu) = %.3f, want ~0.5", frac)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRand(1)
	child := parent.Split()
	// Child stream should differ from a fresh parent-seeded stream and from
	// the parent's continued stream.
	cont := make([]uint64, 50)
	for i := range cont {
		cont[i] = parent.Uint64()
	}
	match := 0
	for i := 0; i < 50; i++ {
		if child.Uint64() == cont[i] {
			match++
		}
	}
	if match > 2 {
		t.Errorf("child stream matches parent continuation %d/50 times", match)
	}
}

// cosTurn's bits are pinned here on every architecture. On amd64 they are
// math.Cos's (TestCosTurnMatchesMathCos); elsewhere math.Cos fuses
// multiply-adds and differs, while cosTurn must not.
func TestCosTurnDigest(t *testing.T) {
	r := NewRand(23)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 1_000_000; i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(cosTurn(r.Float64())))
		h.Write(buf[:])
	}
	const want = 0xaec5dbd9ec5fb022
	if got := h.Sum64(); got != want {
		t.Errorf("cosTurn digest over 1M draws = %#x, want %#x", got, uint64(want))
	}
}

func TestLogNormalsMatchLogNormal(t *testing.T) {
	const cpi, slow = 0.02, 0.03
	// machine draws the way machine.step does: a CPI σ every quantum, and a
	// slow σ right after it every k-th quantum, first at quantum 0.
	machine := func(k int) []float64 {
		var s []float64
		for q := 0; q < 400; q++ {
			s = append(s, cpi)
			if q%k == 0 {
				s = append(s, slow)
			}
		}
		return s
	}
	repeat := func(n int, sigma float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = sigma
		}
		return s
	}
	for _, c := range []struct {
		name       string
		sigmas     []float64
		slowRefill bool // some block must be filled at the slow σ
	}{
		// Slow draws sit at 5m+1, so the fifth block (draw 256) is filled
		// at the slow σ and the CPI draws after it recompute.
		{"cpi, slow every 4th quantum", machine(4), true},
		{"cpi, slow every 7th quantum", machine(7), false},
		{"sigma change mid-block", append(repeat(100, 0.01), repeat(300, cpi)...), false},
		{"slow only", repeat(300, slow), true},
	} {
		ref := NewRand(99)
		l := NewLogNormals(NewRand(99))
		slowRefills := 0
		for i, sigma := range c.sigmas {
			if l.left == 0 && sigma == slow {
				slowRefills++
			}
			got, want := l.Draw(sigma), ref.LogNormal(0, sigma)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: draw %d (σ=%v) = %v, LogNormal = %v", c.name, i, sigma, got, want)
			}
		}
		if c.slowRefill && slowRefills == 0 {
			t.Errorf("%s: no block was filled at the slow σ", c.name)
		}
	}
}

var drawSink float64

// BenchmarkLogNormalsDraw times the jitter draw the machine makes every
// quantum: one stream of Draw at a catalog σ, across many blocks.
func BenchmarkLogNormalsDraw(b *testing.B) {
	l := NewLogNormals(NewRand(1))
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += l.Draw(0.02)
	}
	drawSink = s
}
