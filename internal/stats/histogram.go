package stats

import (
	"fmt"
	"math"
	"strings"
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

// Total returns the number of samples added.
func (h *Histogram) Total() int { return h.total }

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

// CDF returns the empirical cumulative distribution evaluated at the right
// edge of each bin.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	run := 0
	for i, c := range h.Counts {
		run += c
		out[i] = float64(run) / float64(h.total)
	}
	return out
}

// FractionBelow returns the fraction of samples strictly below x, resolving
// within-bin position linearly. It is the success-rate estimator used when a
// deadline falls inside a bin.
func (h *Histogram) FractionBelow(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	if x <= h.Lo {
		return 0
	}
	if x >= h.Hi {
		return 1
	}
	w := h.BinWidth()
	i := h.binIndex(x)
	below := 0
	for j := 0; j < i; j++ {
		below += h.Counts[j]
	}
	frac := (x - (h.Lo + float64(float64(i)*w))) / w
	return (float64(below) + float64(frac*float64(h.Counts[i]))) / float64(h.total)
}

// Render draws a simple ASCII bar chart of the histogram, one row per bin.
// width is the maximum bar length in characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%10.4g |%s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}
