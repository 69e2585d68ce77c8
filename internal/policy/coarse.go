package policy

import (
	"errors"
	"fmt"

	"dirigent/internal/cache"
	"dirigent/internal/sim"
	"dirigent/internal/stats"
	"dirigent/internal/telemetry"
)

// Default coarse-control parameters from §4.3 and §5.3.
const (
	// DefaultCorrThreshold is the correlation coefficient above which FG
	// execution time is considered strongly coupled to FG LLC misses.
	DefaultCorrThreshold = 0.75
	// DefaultHistory is the number of recent FG executions the controller
	// considers.
	DefaultHistory = 10
	// DefaultAdjustEvery is how many FG executions elapse between partition
	// adjustments. The paper's controller converges to the Fig. 8 knee
	// "after just 32 FG task executions (5 coarse time scale controller
	// invocations)" — ~6–7 executions per invocation.
	DefaultAdjustEvery = 6
	// DefaultSuppressedFrac is the fraction of fine decisions with BG fully
	// suppressed above which heuristic 3 grows the FG partition.
	DefaultSuppressedFrac = 0.5
)

// minFGWays is the smallest FG partition, and the one the controller
// starts from: it begins with minimal isolation and grows the FG partition
// one way at a time as the heuristics demand (§4.3 "add one LLC way to the
// FG partition"), converging to the knee of the Fig. 8 curve rather than
// starting from an over-provisioned split. The largest FG partition leaves
// BG the same two ways.
const minFGWays = 2

// CoarseController implements Dirigent's coarse time scale QoS control
// (§4.3): it adjusts the CAT-style way partition between the FG and BG
// classes using statistics collected over multiple FG executions, because
// cache inertia makes partition changes too slow for per-segment control.
//
// Three heuristics:
//
//  1. If corr(FG execution time, FG LLC misses) over the window exceeds the
//     threshold AND a deadline was missed recently, grow the FG partition.
//  2. If the previous action was a grow and FG misses did not decrease,
//     shrink back (prevents unbounded growth from anomalous executions).
//  3. If the fine controller reports BG tasks heavily suppressed (low BG
//     core utilization), grow the FG partition even without correlation —
//     partitioning may relieve the contention that throttling is absorbing.
type CoarseController struct {
	llc     *cache.LLC
	fgClass cache.ClassID
	bgClass cache.ClassID
	rec     telemetry.Recorder

	execTimes  *stats.Ring
	execMisses *stats.Ring
	missedDL   *stats.Ring // 1.0 = missed

	sinceAdjust int
	fgWays      int

	// Grow bookkeeping for heuristic 2.
	lastWasGrow      bool
	missesBeforeGrow float64

	execCount        int
	lastChangeAtExec int
}

// NewCoarseController builds the controller and applies the initial
// partition of minFGWays. rec receives partition-move and decision events;
// nil means no telemetry.
func NewCoarseController(llc *cache.LLC, fgClass, bgClass cache.ClassID, rec telemetry.Recorder) (*CoarseController, error) {
	if llc == nil {
		return nil, errors.New("policy: nil LLC")
	}
	if fgClass == bgClass {
		return nil, errors.New("policy: FG and BG must use distinct partition classes")
	}
	if llc.Ways()-minFGWays < minFGWays {
		return nil, fmt.Errorf("policy: FG way bounds [%d,%d] invalid for %d-way cache",
			minFGWays, llc.Ways()-minFGWays, llc.Ways())
	}
	cc := &CoarseController{
		llc:        llc,
		fgClass:    fgClass,
		bgClass:    bgClass,
		rec:        telemetry.OrNop(rec),
		execTimes:  stats.MustRing(DefaultHistory),
		execMisses: stats.MustRing(DefaultHistory),
		missedDL:   stats.MustRing(DefaultHistory),
		fgWays:     minFGWays,
	}
	if err := cc.apply(); err != nil {
		return nil, err
	}
	cc.emitPartition(0, 0, telemetry.ReasonInitialPartition)
	return cc, nil
}

// emitPartition records the (possibly initial) partition state.
func (cc *CoarseController) emitPartition(now sim.Time, delta int, reason telemetry.Reason) {
	if cc.rec.Enabled(telemetry.KindPartitionMove) {
		cc.rec.Record(telemetry.Event{
			Kind: telemetry.KindPartitionMove, At: now,
			FGWays: cc.fgWays, Delta: delta,
			ExecCount: cc.execCount, Reason: reason,
		})
	}
}

func (cc *CoarseController) apply() error {
	return cc.llc.SetPartition(map[cache.ClassID]int{
		cc.fgClass: cc.fgWays,
		cc.bgClass: cc.llc.Ways() - cc.fgWays,
	})
}

// FGWays returns the current FG partition size.
func (cc *CoarseController) FGWays() int { return cc.fgWays }

// RecordExecution feeds one completed FG execution: its duration in
// seconds, its LLC misses, and whether it missed its deadline. With
// multiple FG streams, the runtime records every stream's executions into
// the same window (they share the FG partition, §5.4).
func (cc *CoarseController) RecordExecution(durationSec, llcMisses float64, missedDeadline bool) {
	cc.execTimes.Push(durationSec)
	cc.execMisses.Push(llcMisses)
	if missedDeadline {
		cc.missedDL.Push(1)
	} else {
		cc.missedDL.Push(0)
	}
	cc.sinceAdjust++
	cc.execCount++
}

// Due reports whether enough executions have accumulated for an adjustment.
func (cc *CoarseController) Due() bool {
	return cc.sinceAdjust >= DefaultAdjustEvery && cc.execTimes.Len() >= 2
}

// Adjust runs the three heuristics and applies any partition change. now
// is the simulated time of the triggering execution; window is the fine
// controller's decision window since the last adjustment (used by
// heuristic 3 — the caller should reset it afterwards). Returns the
// applied delta in ways (-1, 0, +1). Every invocation emits a
// KindCoarseDecision event carrying the heuristic that fired.
func (cc *CoarseController) Adjust(now sim.Time, window FineWindow) (int, error) {
	cc.sinceAdjust = 0

	times := cc.execTimes.Values()
	misses := cc.execMisses.Values()
	missedRecently := false
	for _, v := range cc.missedDL.Values() {
		if v > 0 {
			missedRecently = true
			break
		}
	}

	// Heuristic 2: a grow that did not reduce misses is undone. Checked
	// first so a bad grow cannot stick.
	if cc.lastWasGrow {
		cc.lastWasGrow = false
		if mean := stats.Mean(misses); mean >= cc.missesBeforeGrow*0.98 {
			return cc.step(-1, now, telemetry.ReasonRevertGrow)
		}
	}

	// Heuristic 1: strong time↔miss correlation plus recent misses.
	corr, err := stats.Correlation(times, misses)
	if err == nil && corr > DefaultCorrThreshold && missedRecently {
		return cc.grow(misses, now, telemetry.ReasonCorrelation)
	}

	// Heuristic 3: BG heavily suppressed by the fine controller. Dropped
	// actuations count as suppression pressure: each one is a resource
	// shift the fine controller wanted for the FG and did not get, so
	// under actuation faults the coarse controller compensates with cache.
	if window.Decisions > 0 {
		frac := float64(window.BGSuppressed+window.ActuationFailures) / float64(window.Decisions)
		if frac > DefaultSuppressedFrac {
			return cc.grow(misses, now, telemetry.ReasonBGSuppressed)
		}
	}
	cc.emitDecision(now, 0, telemetry.ReasonNoChange)
	return 0, nil
}

func (cc *CoarseController) emitDecision(now sim.Time, delta int, reason telemetry.Reason) {
	if cc.rec.Enabled(telemetry.KindCoarseDecision) {
		cc.rec.Record(telemetry.Event{
			Kind: telemetry.KindCoarseDecision, At: now,
			Reason: reason, Delta: delta,
			FGWays: cc.fgWays, ExecCount: cc.execCount,
		})
	}
}

func (cc *CoarseController) grow(missWindow []float64, now sim.Time, reason telemetry.Reason) (int, error) {
	cc.missesBeforeGrow = stats.Mean(missWindow)
	delta, err := cc.step(+1, now, reason)
	if err == nil && delta > 0 {
		cc.lastWasGrow = true
	}
	return delta, err
}

func (cc *CoarseController) step(delta int, now sim.Time, reason telemetry.Reason) (int, error) {
	next := cc.fgWays + delta
	if next < minFGWays || next > cc.llc.Ways()-minFGWays {
		cc.emitDecision(now, 0, reason)
		return 0, nil
	}
	cc.fgWays = next
	if err := cc.apply(); err != nil {
		cc.fgWays -= delta
		return 0, err
	}
	cc.lastChangeAtExec = cc.execCount
	cc.emitDecision(now, delta, reason)
	cc.emitPartition(now, delta, reason)
	return delta, nil
}

// ConvergedAt returns the execution count at which the partition last
// changed — the paper's convergence measure (§5.3: "converges ... after
// just 32 FG task executions").
func (cc *CoarseController) ConvergedAt() int { return cc.lastChangeAtExec }
