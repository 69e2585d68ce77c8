package stats

import (
	"math"
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
	if h.total != 4 {
		t.Errorf("total = %d", h.total)
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

// TestHistogramCDF checks the empirical CDF that the PDF accumulates to at
// the right edge of each bin.
func TestHistogramCDF(t *testing.T) {
	h, _ := NewHistogram(0, 4, 4)
	for _, x := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Add(x)
	}
	want := []float64{0.25, 0.5, 0.75, 1}
	run := 0.0
	for i, d := range h.PDF() {
		run += d * h.BinWidth()
		if !almostEq(run, want[i], 1e-12) {
			t.Errorf("CDF at bin %d = %g, want %g", i, run, want[i])
		}
	}
	empty, _ := NewHistogram(0, 1, 2)
	for _, v := range empty.PDF() {
		if v != 0 {
			t.Error("empty PDF should be zeros")
		}
	}
}
