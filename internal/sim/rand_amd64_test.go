package sim

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
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

// The kernel runs wherever the CPU has AVX2 and FMA. A wrong CPUID bit would
// quietly run the Go path instead: every golden would still pass, and only
// the speed would be gone.
func TestAVX2KernelSelected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("the CPU's features are read from /proc/cpuinfo, which %s does not have", runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the CPU's features: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := slices.Contains(flags, "avx2") && slices.Contains(flags, "fma")
	if haveAVX2FMA != want {
		t.Fatalf("haveAVX2FMA = %v, but /proc/cpuinfo lists avx2 and fma: %v (math.Exp takes its FMA path: %v)",
			haveAVX2FMA, want, expTakesFMAPath())
	}
}

// The kernel must give normalsExpGo's bits, in both z and v: every jitter
// draw, and so every golden, goes through it. It is checked at every
// catalog CPIJitter σ, the machines' slow σ (0.03), a fault-sized σ, the
// largest σ it accepts (negated too) and 0, over edge inputs and 10 M
// random draws.
func TestNormalsExpAVX2MatchesGo(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("the kernel is not selected here (haveAVX2FMA), so normalsExp runs normalsExpGo")
	}
	top := math.Nextafter(kernelSigmaMax, 0)
	sigmas := []float64{0.011, 0.012, 0.013, 0.015, 0.018, 0.02, 0.022, 0.028, 0.03, 0.3, top, -top, 0}
	check := func(z, v *[logNormalBlock]float64, sigma float64) {
		gz, gv := *z, *v
		u1, u2 := *z, *v
		normalsExpGo(&gz, &gv, sigma)
		normalsExpAVX2(z, v, sigma)
		for i := range z {
			if math.Float64bits(z[i]) != math.Float64bits(gz[i]) || math.Float64bits(v[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("σ=%v, u1=%v (%#x), u2=%v (%#x): kernel z=%#x v=%#x, Go z=%#x v=%#x",
					sigma, u1[i], math.Float64bits(u1[i]), u2[i], math.Float64bits(u2[i]),
					math.Float64bits(z[i]), math.Float64bits(v[i]), math.Float64bits(gz[i]), math.Float64bits(gv[i]))
			}
		}
	}

	// Each edge u1 with both neighbours: the guard's floor (the largest
	// |z|, so at the top σ the largest exp argument the kernel can get),
	// the smallest nonzero draw, binade edges, logUnit's √2/2 test, the
	// largest draw.
	var u1s, u2s []float64
	for _, x := range []float64{1e-300, 0x1p-53, 1e-10, 0.25, 0.5, math.Sqrt2 / 2, 0.75, 1 - 0x1p-53} {
		for _, u := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, 1)} {
			if u >= 1e-300 && u < 1 {
				u1s = append(u1s, u)
			}
		}
	}
	// cosTurn's octant edges k/8 with 2 ulp either side, and its ends.
	u2s = append(u2s, 0, 1-0x1p-53)
	for k := 1; k < 8; k++ {
		e := float64(k) / 8
		lo, hi := math.Nextafter(e, 0), math.Nextafter(e, 1)
		u2s = append(u2s, math.Nextafter(lo, 0), lo, e, hi, math.Nextafter(hi, 1))
	}
	var pairs [][2]float64
	for _, a := range u1s {
		for _, b := range u2s {
			pairs = append(pairs, [2]float64{a, b})
		}
	}
	for _, sigma := range sigmas {
		for start := 0; start < len(pairs); start += logNormalBlock {
			var z, v [logNormalBlock]float64
			for i := range z {
				p := pairs[min(start+i, len(pairs)-1)]
				z[i], v[i] = p[0], p[1]
			}
			check(&z, &v, sigma)
		}
	}

	// Random blocks, filled as refill fills them.
	r := NewRand(31)
	perSigma := 10_000_000/len(sigmas)/logNormalBlock + 1
	for _, sigma := range sigmas {
		for b := 0; b < perSigma; b++ {
			var z, v [logNormalBlock]float64
			for i := range z {
				z[i] = r.guardedUnit()
				v[i] = r.Float64()
			}
			check(&z, &v, sigma)
		}
	}
}
