// Package sim provides the simulation backbone for the Dirigent
// reproduction: a discrete simulated clock advanced in fixed quanta, and a
// deterministic random source.
//
// Dirigent's real-system implementation samples wall-clock time with sleep()
// at a 5 ms period; inside the simulator the clock is purely logical, which
// removes scheduler and GC jitter from the control loop while preserving the
// cadence of every paper mechanism (5 ms sampling, 25 ms control decisions,
// 100 µs runtime overhead).
//
// Every stream has one owner. A component that draws gets its own Rand from
// Split, so adding draws in one component never shifts another's values.
// LogNormals goes further: it owns its Rand outright and draws a block of
// normals ahead, which is exact only because nothing else reads that
// stream. A Rand handed to NewLogNormals must not be drawn from again.
// The refill draws its uniforms in Norm's order, u1 then u2 for each
// normal, so a block holds the normals Norm would have returned. On amd64
// CPUs with AVX2 and FMA an assembly kernel turns them into normals and
// lognormals four lanes at a time, with the Go code's bits
// (rand_amd64.s); every other CPU runs the Go code.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant on the simulated timeline, measured as a duration since
// simulation start. Using time.Duration gives nanosecond granularity and
// familiar formatting for free.
type Time = time.Duration

// Clock tracks simulated time. It advances only through Advance, in
// increments chosen by the machine stepper, so all components observe an
// identical, reproducible timeline.
type Clock struct {
	now     Time
	quantum time.Duration
}

// DefaultQuantum is the simulation step: 250 µs. It is 20× finer than the
// 5 ms Dirigent sampling period, so progress within one sampling segment is
// resolved smoothly, and coarse enough that full paper sweeps finish in
// seconds of wall time.
const DefaultQuantum = 250 * time.Microsecond

// NewClock returns a clock starting at t=0 with the given quantum. A
// non-positive quantum is rejected.
func NewClock(quantum time.Duration) (*Clock, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("sim: quantum %v must be positive", quantum)
	}
	return &Clock{quantum: quantum}, nil
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves simulated time forward by one quantum and returns the new
// time.
func (c *Clock) Advance() Time {
	c.now += c.quantum
	return c.now
}

// Ticker fires a callback every period of simulated time, aligned to the
// first quantum boundary at or after each multiple of the period. Dirigent's
// 5 ms sampler and the experiment harness's metric snapshots are Tickers.
type Ticker struct {
	period time.Duration
	next   Time
}

// NewTicker returns a ticker with the given positive period, first firing at
// t = period.
func NewTicker(period time.Duration) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ticker period %v must be positive", period)
	}
	return &Ticker{period: period, next: Time(period)}, nil
}

// MustTicker is NewTicker that panics on invalid input.
func MustTicker(period time.Duration) *Ticker {
	t, err := NewTicker(period)
	if err != nil {
		panic(err)
	}
	return t
}

// Period returns the ticker period.
func (t *Ticker) Period() time.Duration { return t.period }

// NextDue returns the next time Fire will report true — the instant a
// batched stepping loop must stop at.
func (t *Ticker) NextDue() Time { return t.next }

// Fire reports whether the ticker is due at time now, and if so advances the
// deadline. If the caller skipped past several periods, Fire catches up one
// period per call, so no tick is silently lost.
func (t *Ticker) Fire(now Time) bool {
	if now < t.next {
		return false
	}
	t.next += Time(t.period)
	return true
}

// Reset re-arms the ticker relative to the given time.
func (t *Ticker) Reset(now Time) { t.next = now + Time(t.period) }
