package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("0 bins should error")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("empty range should error")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Error("inverted range should error")
	}
}

func TestHistogramAddAndClamp(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1)   // bin 0
	h.Add(9.9) // bin 4
	h.Add(-5)  // clamped to bin 0
	h.Add(50)  // clamped to bin 4
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[4] != 2 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if got := h.BinWidth(); got != 2 {
		t.Errorf("BinWidth = %g", got)
	}
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("BinCenter(0) = %g", got)
	}
}

func TestHistogramPDFIntegratesToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 1 + int(r.uint64()%200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.float64() * 10
		}
		h, err := NewHistogram(0, 10, 16)
		if err != nil {
			return false
		}
		for _, x := range xs {
			h.Add(x)
		}
		integral := 0.0
		for _, d := range h.PDF() {
			integral += d * h.BinWidth()
		}
		return math.Abs(integral-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramCDF(t *testing.T) {
	h, _ := NewHistogram(0, 4, 4)
	for _, x := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Add(x)
	}
	cdf := h.CDF()
	want := []float64{0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almostEq(cdf[i], want[i], 1e-12) {
			t.Errorf("CDF = %v, want %v", cdf, want)
		}
	}
	empty, _ := NewHistogram(0, 1, 2)
	for _, v := range empty.CDF() {
		if v != 0 {
			t.Error("empty CDF should be zeros")
		}
	}
	for _, v := range empty.PDF() {
		if v != 0 {
			t.Error("empty PDF should be zeros")
		}
	}
}

func TestFractionBelow(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5) // one sample per bin
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{-1, 0}, {0, 0}, {5, 0.5}, {10, 1}, {11, 1}, {2.5, 0.25},
	}
	for _, c := range cases {
		if got := h.FractionBelow(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("FractionBelow(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	empty, _ := NewHistogram(0, 1, 2)
	if empty.FractionBelow(0.5) != 0 {
		t.Error("empty histogram FractionBelow should be 0")
	}
}

func TestFractionBelowMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		h, _ := NewHistogram(0, 100, 20)
		for i := 0; i < 50; i++ {
			h.Add(r.float64() * 100)
		}
		prev := -1.0
		for x := -10.0; x <= 110; x += 1.7 {
			v := h.FractionBelow(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Errorf("Render output missing bars:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("Render should emit one line per bin, got %d", lines)
	}
	// Zero/negative width falls back to default and must not panic.
	_ = h.Render(0)
	empty, _ := NewHistogram(0, 1, 3)
	_ = empty.Render(5)
}
