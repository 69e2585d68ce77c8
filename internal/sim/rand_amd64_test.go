package sim

import (
	"math"
	"testing"
)

// On amd64, math.Cos is Go's portable cos, which cosTurn must reproduce
// bit for bit: every Box–Muller draw, and so every golden, goes through it.
func TestCosTurnMatchesMathCos(t *testing.T) {
	check := func(u float64) {
		if got, want := cosTurn(u), math.Cos(2*math.Pi*u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cosTurn(%v) = %v (%#x), math.Cos = %v (%#x)",
				u, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check(0)
	check(1 - 0x1p-53) // the largest Float64 draw
	// Each octant edge k/8 and its neighbours within 2 ulp.
	for k := 0; k <= 8; k++ {
		edge := float64(k) / 8
		for _, u := range []float64{
			edge,
			math.Nextafter(edge, 0), math.Nextafter(math.Nextafter(edge, 0), 0),
			math.Nextafter(edge, 1), math.Nextafter(math.Nextafter(edge, 1), 1),
		} {
			if u >= 0 && u < 1 {
				check(u)
			}
		}
	}
	r := NewRand(17)
	for i := 0; i < 10_000_000; i++ {
		check(r.Float64())
	}
}

// On amd64, math.Log is log_amd64.s, which logUnit must reproduce bit for
// bit: every Box–Muller draw, and so every golden, goes through it.
func TestLogUnitMatchesMathLog(t *testing.T) {
	check := func(x float64) {
		if got, want := logUnit(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("logUnit(%v) = %v (%#x), math.Log = %v (%#x): logUnit no longer "+
				"transcribes log_amd64.s, so every normal draw, and with it every golden, moves",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Norm's clamp, the smallest nonzero and the largest Float64 draw, the
	// binade edge 0.5, and √2/2 (where the assembly's reduction test differs
	// from log.go's) with both neighbours.
	h := math.Sqrt2 / 2
	for _, x := range []float64{1e-300, 0x1p-53, 0.5, h, math.Nextafter(h, 0), math.Nextafter(h, 1), 1 - 0x1p-53} {
		check(x)
	}
	r := NewRand(23)
	for i := 0; i < 10_000_000; i++ {
		if u := r.Float64(); u > 0 {
			check(u)
		}
	}
}

// math.Exp on amd64 (exp_amd64.s) chooses at run time between an FMA path,
// taken when the CPU has AVX and FMA, and an SSE path, whose results differ
// in the last bit on about 1% of jitter-sized inputs. Every golden was
// recorded on the FMA path. The inputs below are ones where the two differ.
func TestMathExpTakesFMAPath(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0xbfa5c8e36f69506b, 0x3feeaac1713df645},
		{0xbfb135f5ccc5df21, 0x3fedeb5c342916ab},
		{0x3f82fe1cb62cccf9, 0x3ff0262974391503},
		{0xbfa438fd811d338e, 0x3feec2bea5b71ea5},
	} {
		if got := math.Float64bits(math.Exp(math.Float64frombits(c.in))); got != c.want {
			t.Errorf("math.Exp(%#x) = %#x, want %#x: this CPU runs exp_amd64.s's "+
				"SSE path (no AVX+FMA), so the goldens, which hold only on "+
				"x86-64 CPUs with FMA, will not match either", c.in, got, c.want)
		}
	}
}
