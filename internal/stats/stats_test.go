package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %g, want %g", c.xs, got, c.want)
			}
		})
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := Std(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("Std = %g, want 2", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %g, want 0", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance(single) = %g, want 0", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	got, err := HarmonicMean([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 / (1 + 0.5 + 0.25)
	if !almostEq(got, want, 1e-12) {
		t.Errorf("HarmonicMean = %g, want %g", got, want)
	}
	if _, err := HarmonicMean(nil); err == nil {
		t.Error("HarmonicMean(nil) should error")
	}
	if _, err := HarmonicMean([]float64{1, 0}); err == nil {
		t.Error("HarmonicMean with zero should error")
	}
	if _, err := HarmonicMean([]float64{1, -1}); err == nil {
		t.Error("HarmonicMean with negative should error")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %g", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %g", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) should be +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, c := range cases {
		got, err := Percentiles(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got[0], c.want, 1e-12) {
			t.Errorf("Percentiles(%g) = %g, want %g", c.p, got[0], c.want)
		}
	}
	if _, err := Percentiles(xs, -1); err == nil {
		t.Error("Percentiles(-1) should error")
	}
	if _, err := Percentiles(xs, 101); err == nil {
		t.Error("Percentiles(101) should error")
	}
	got, err := Percentiles([]float64{42}, 73)
	if err != nil || got[0] != 42 {
		t.Errorf("Percentiles(single) = %v, %v", got, err)
	}
}

func TestPercentilesBatch(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got, err := Percentiles(xs, 0, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Errorf("Percentiles[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := Percentiles(xs, 50, 200); err == nil {
		t.Error("out-of-range percentile in batch should error")
	}
	if _, err := Percentiles(nil, 50); err == nil {
		t.Error("Percentiles(nil) should error")
	}
}

func TestCorrelation(t *testing.T) {
	// Perfect positive.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	got, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1, 1e-12) {
		t.Errorf("Correlation = %g, want 1", got)
	}
	// Perfect negative.
	got, err = Correlation(xs, []float64{8, 6, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, -1, 1e-12) {
		t.Errorf("Correlation = %g, want -1", got)
	}
	// Constant series -> 0 by convention.
	got, err = Correlation(xs, []float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Correlation with constant = %g, want 0", got)
	}
	if _, err := Correlation(xs, ys[:3]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Correlation([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 should error")
	}
}

func TestCorrelationBounds(t *testing.T) {
	// Property: |corr| <= 1 for arbitrary inputs of equal length >= 2.
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 2 + int(r.uint64()%64)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.float64()*100 - 50
			ys[i] = r.float64()*100 - 50
		}
		c, err := Correlation(xs, ys)
		if err != nil {
			return false
		}
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || !almostEq(s.Mean, 5.5, 1e-12) {
		t.Errorf("Summary N/Mean wrong: %+v", s)
	}
	if s.Min != 1 || s.Max != 10 {
		t.Errorf("Summary Min/Max wrong: %+v", s)
	}
	if !almostEq(s.P50, 5.5, 1e-12) {
		t.Errorf("P50 = %g", s.P50)
	}
	if s.P95 <= s.P50 || s.P99 < s.P95 {
		t.Errorf("percentile ordering violated: %+v", s)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) should error")
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestSummaryCV(t *testing.T) {
	s := Summary{Mean: 2, Std: 1}
	if got := s.CV(); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("CV = %g", got)
	}
	if got := (Summary{}).CV(); got != 0 {
		t.Errorf("CV of zero mean = %g, want 0", got)
	}
}

// testRand is a tiny deterministic generator for property tests, independent
// of math/rand so test behavior never shifts across Go releases.
type testRand struct{ s uint64 }

func newTestRand(seed int64) *testRand {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &testRand{s: s}
}

func (r *testRand) uint64() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *testRand) float64() float64 {
	return float64(r.uint64()>>11) / float64(1<<53)
}
