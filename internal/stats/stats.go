// Package stats provides the small statistical toolkit used throughout the
// Dirigent simulator and runtime: summary statistics, online accumulators,
// exponential moving averages, Pearson correlation, percentiles, and
// histogram/PDF construction.
//
// Everything here is deterministic and allocation-conscious: the Dirigent
// runtime calls into this package on its 5 ms control path, so the hot
// entry points (EMA updates, Welford accumulators) do not allocate.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// or 0 if xs has fewer than one element. The paper reports population
// standard deviations over fixed execution sets, so population variance is
// the matching estimator.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(n)
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// HarmonicMean returns the harmonic mean of xs. All samples must be
// positive; non-positive samples yield an error because the harmonic mean is
// undefined for them. The paper summarizes relative BG throughput with a
// harmonic mean (Fig. 10/13).
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	inv := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: harmonic mean of non-positive sample %g", x)
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv, nil
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentiles returns the requested percentiles (0 <= p <= 100) of xs with a
// single sort, each by linear interpolation between closest ranks.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("stats: percentile %g out of range [0,100]", p)
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out, nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := float64(p / 100 * float64(n-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// Both slices must have the same length and at least two elements. If either
// series is constant the correlation is undefined and 0 is returned: the
// coarse controller treats "no signal" and "no correlation" identically
// (§4.3, heuristic 1).
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: correlation length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return 0, fmt.Errorf("stats: correlation requires >= 2 samples, got %d", n)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Summary bundles the descriptive statistics the experiment harness reports
// for a set of task execution times.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	P50  float64
	P95  float64
	P99  float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	ps, err := Percentiles(xs, 50, 95, 99)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  Std(xs),
		Min:  Min(xs),
		Max:  Max(xs),
		P50:  ps[0],
		P95:  ps[1],
		P99:  ps[2],
	}, nil
}

// CV returns the coefficient of variation (std/mean), the paper's
// "normalized standard deviation" (Fig. 7, Fig. 14). Returns 0 when the mean
// is zero.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max)
}
