package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin histogram over [Lo, Hi). Samples outside the
// range are clamped into the first/last bin so that probability mass is
// conserved; the experiment harness sizes ranges from observed data so
// clamping only catches boundary rounding.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram bins %d must be positive", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram range [%g,%g) is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add folds one sample into the histogram.
func (h *Histogram) Add(x float64) {
	i := h.binIndex(x)
	h.Counts[i]++
	h.total++
}

func (h *Histogram) binIndex(x float64) int {
	n := len(h.Counts)
	i := int(math.Floor((x - h.Lo) / (h.Hi - h.Lo) * float64(n)))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + float64((float64(i)+0.5)*h.BinWidth())
}

// PDF returns the empirical probability density per bin: fraction of samples
// in each bin divided by the bin width, so the curve integrates to ~1. Used
// to regenerate the execution-time PDF curves of Fig. 1 and Fig. 11.
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	w := h.BinWidth()
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total) / w
	}
	return out
}
