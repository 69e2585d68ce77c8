package stats

import "fmt"

// EMA is an exponential moving average with weight w on the newest sample:
// v' = w*x + (1-w)*v. Before the first sample the EMA is "empty" and the
// first Add seeds it directly, matching the paper's per-segment penalty
// average P̄_i = 0.2 P_i + 0.8 P̄_i (§4.2) which is seeded by the first
// contended execution.
type EMA struct {
	weight float64
	value  float64
	seeded bool
}

// NewEMA returns an EMA with the given weight in (0, 1].
func NewEMA(weight float64) (*EMA, error) {
	if weight <= 0 || weight > 1 {
		return nil, fmt.Errorf("stats: EMA weight %g outside (0,1]", weight)
	}
	return &EMA{weight: weight}, nil
}

// MustEMA is NewEMA that panics on an invalid weight; for package-internal
// construction with constant weights.
func MustEMA(weight float64) *EMA {
	e, err := NewEMA(weight)
	if err != nil {
		panic(err)
	}
	return e
}

// Add folds x into the average and returns the new value.
func (e *EMA) Add(x float64) float64 {
	if !e.seeded {
		e.value = x
		e.seeded = true
		return e.value
	}
	e.value = float64(e.weight*x) + float64((1-e.weight)*e.value)
	return e.value
}

// Value returns the current average (0 if unseeded).
func (e *EMA) Value() float64 { return e.value }

// Seeded reports whether at least one sample has been added.
func (e *EMA) Seeded() bool { return e.seeded }

// Ring is a fixed-capacity ring buffer of float64 samples, used for the
// coarse controller's sliding windows (last 10 executions, §4.3).
type Ring struct {
	buf  []float64
	next int
	full bool
}

// NewRing returns a ring holding up to capacity samples. Capacity must be
// positive.
func NewRing(capacity int) (*Ring, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("stats: ring capacity %d must be positive", capacity)
	}
	return &Ring{buf: make([]float64, capacity)}, nil
}

// MustRing is NewRing that panics on an invalid capacity.
func MustRing(capacity int) *Ring {
	r, err := NewRing(capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Push appends x, evicting the oldest sample once full.
func (r *Ring) Push(x float64) {
	r.buf[r.next] = x
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of samples currently held.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Values returns the samples in oldest-to-newest order as a fresh slice.
func (r *Ring) Values() []float64 {
	n := r.Len()
	out := make([]float64, 0, n)
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}
