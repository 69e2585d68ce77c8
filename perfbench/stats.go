package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a tail.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minTail samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minTail
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitmix is the benchmark's own seeded generator (SplitMix64). Inputs
// are drawn from it rather than from the program's sim.Rand so that a
// change to the program's random streams never changes the benchmark's
// inputs.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with the given rate.
func (r *splitmix) exp(rate float64) float64 { return -math.Log(1-r.float()) / rate }
