package telemetry

import (
	"time"

	"dirigent/internal/sim"
)

// FineStats aggregates fine time scale controller activity from decision
// and action events. It carries the counters the evaluation reports
// (Fig. 12-style analyses): each field counts events over the whole run,
// with the same increment semantics the controller's actions have — e.g.
// one BGThrottle per decision that stepped the BG cores down, one
// FGThrottle per individual FG core stepped down.
type FineStats struct {
	// Decisions counts fine decisions (KindFineDecision events).
	Decisions int
	// BGSuppressed counts decisions whose Suppressed flag was set: all BG
	// paused or the active mean grade in the lower 60% of the range.
	BGSuppressed int
	// PausesIssued counts BG pause actions.
	PausesIssued int
	// FGThrottles counts per-stream FG slow-down actions.
	FGThrottles int
	// BGThrottles counts decisions that stepped active BG cores down.
	BGThrottles int
	// BGSpeedups counts decisions that stepped active BG cores up.
	BGSpeedups int
	// Resumes counts decisions that resumed paused BG tasks.
	Resumes int
	// FGMaxBoosts counts per-stream boosts to the top grade.
	FGMaxBoosts int
	// LastDecisionAt is the simulated time of the latest decision.
	LastDecisionAt sim.Time
}

// Aggregator is the in-memory sink the evaluation harness consumes: it
// folds the event stream into exactly the cross-run statistics RunResult
// reports, so the figures are computed from the same events a user would
// see in a JSONL trace. Not safe for concurrent use — attach one aggregator
// per run (the runner does).
type Aggregator struct {
	started bool
	cores   int
	levels  int
	quantum time.Duration

	curLevel  []int
	residency [][]time.Duration

	quanta       int64
	instructions float64
	llcMisses    float64

	fine FineStats

	fgWays          int
	convergedAtExec int

	executions int

	// faultsByClass counts injected faults (KindFault) keyed by class wire
	// name; reprofiles counts runtime re-profiling episodes (KindReprofile)
	// that succeeded.
	faultsByClass map[string]int
	faults        int
	reprofiles    int

	// streamDurations collects per-FG-stream execution durations in
	// completion order, keyed by stream index. This is the raw material of
	// every QoS statistic (success rates, execution-time variance): keeping
	// it here means the evaluation harness and the regression gate both
	// derive those numbers from the event stream rather than private
	// scheduler state.
	streamDurations map[int][]time.Duration
}

// NewAggregator returns an empty aggregator. Machine geometry is learned
// from the KindMachineStart event the machine emits when the recorder is
// attached.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Enabled reports true for every kind: the aggregator consumes the full
// stream.
func (a *Aggregator) Enabled(Kind) bool { return true }

// Record folds one event into the aggregate state.
func (a *Aggregator) Record(ev Event) {
	switch ev.Kind {
	case KindMachineStart:
		// First attach wins; a re-attach of the same recorder must not
		// reset mid-run state.
		if a.started {
			return
		}
		a.started = true
		a.cores = ev.Cores
		a.levels = ev.Levels
		a.quantum = ev.Quantum
		a.curLevel = make([]int, a.cores)
		a.residency = make([][]time.Duration, a.cores)
		for c := range a.curLevel {
			a.curLevel[c] = ev.TopLevel
			a.residency[c] = make([]time.Duration, a.levels)
		}
	case KindQuantumStep:
		a.quanta++
		a.instructions += ev.Instructions
		a.llcMisses += ev.LLCMisses
		// Residency advances at each core's current level, mirroring the
		// machine's own accounting: levels only change between quanta, so
		// replaying transitions in stream order reproduces it exactly.
		for c := range a.curLevel {
			a.residency[c][a.curLevel[c]] += a.quantum
		}
	case KindDVFSTransition:
		if ev.Core >= 0 && ev.Core < len(a.curLevel) &&
			ev.ToLevel >= 0 && ev.ToLevel < a.levels {
			a.curLevel[ev.Core] = ev.ToLevel
		}
	case KindPartitionMove:
		a.fgWays = ev.FGWays
		if ev.Delta != 0 {
			a.convergedAtExec = ev.ExecCount
		}
	case KindFineDecision:
		a.fine.Decisions++
		if ev.Suppressed {
			a.fine.BGSuppressed++
		}
		a.fine.LastDecisionAt = ev.At
	case KindFineAction:
		switch ev.Action {
		case ActionFGMaxBoost:
			a.fine.FGMaxBoosts++
		case ActionFGThrottle:
			a.fine.FGThrottles++
		case ActionBGThrottle:
			a.fine.BGThrottles++
		case ActionBGSpeedup:
			a.fine.BGSpeedups++
		case ActionBGPause:
			a.fine.PausesIssued++
		case ActionBGResume:
			a.fine.Resumes++
		}
	case KindExecutionComplete:
		a.executions++
		if a.streamDurations == nil {
			a.streamDurations = map[int][]time.Duration{}
		}
		a.streamDurations[ev.Stream] = append(a.streamDurations[ev.Stream], ev.Duration)
	case KindFault:
		a.faults++
		if a.faultsByClass == nil {
			a.faultsByClass = map[string]int{}
		}
		a.faultsByClass[string(ev.Reason)]++
	case KindReprofile:
		if !ev.Suppressed {
			a.reprofiles++
		}
	}
}

// RecordQuantumSteps folds a run of consecutive quantum-step events in one
// call — one machine StepN batch. The per-event float
// accumulators are added in stream order (identical rounding to Record);
// the per-core residency advance is integer arithmetic and is folded to one
// multiply per core, which is exact because the machine flushes a batch
// before any DVFS transition can change a core's level mid-batch.
func (a *Aggregator) RecordQuantumSteps(evs []Event) {
	a.quanta += int64(len(evs))
	for i := range evs {
		a.instructions += evs[i].Instructions
		a.llcMisses += evs[i].LLCMisses
	}
	for c := range a.curLevel {
		a.residency[c][a.curLevel[c]] += a.quantum * time.Duration(len(evs))
	}
}

// Fine returns the accumulated fine-controller statistics.
func (a *Aggregator) Fine() FineStats { return a.fine }

// FGWays returns the FG partition size after the last partition move (0
// when no partition event was seen).
func (a *Aggregator) FGWays() int { return a.fgWays }

// ConvergedAtExecution returns the execution count at the last partition
// change — the paper's §5.3 convergence measure.
func (a *Aggregator) ConvergedAtExecution() int { return a.convergedAtExec }

// FreqResidency returns the cumulative time core has spent at each
// frequency level, reconstructed from quantum steps and DVFS transitions.
// It returns nil for out-of-range cores or before machine start.
func (a *Aggregator) FreqResidency(core int) []time.Duration {
	if core < 0 || core >= len(a.residency) {
		return nil
	}
	return append([]time.Duration(nil), a.residency[core]...)
}

// Quanta returns how many machine quanta were observed.
func (a *Aggregator) Quanta() int64 { return a.quanta }

// Instructions returns machine-wide instructions observed via quantum
// steps.
func (a *Aggregator) Instructions() float64 { return a.instructions }

// LLCMisses returns machine-wide LLC misses observed via quantum steps.
func (a *Aggregator) LLCMisses() float64 { return a.llcMisses }

// Executions returns the number of completed FG executions.
func (a *Aggregator) Executions() int { return a.executions }

// StreamDurations returns one FG stream's execution durations in completion
// order, reconstructed from KindExecutionComplete events (nil when the
// stream completed nothing).
func (a *Aggregator) StreamDurations(stream int) []time.Duration {
	d := a.streamDurations[stream]
	if d == nil {
		return nil
	}
	return append([]time.Duration(nil), d...)
}

// Faults returns how many injected faults (KindFault events) were observed.
func (a *Aggregator) Faults() int { return a.faults }

// FaultsByClass returns injected-fault counts keyed by fault-class wire
// name (nil when no faults were observed).
func (a *Aggregator) FaultsByClass() map[string]int {
	if a.faultsByClass == nil {
		return nil
	}
	out := make(map[string]int, len(a.faultsByClass))
	//lint:ignore maprange pure map-to-map copy; order cannot reach results
	for k, v := range a.faultsByClass {
		out[k] = v
	}
	return out
}

// Reprofiles returns how many successful runtime re-profiling episodes were
// observed.
func (a *Aggregator) Reprofiles() int { return a.reprofiles }
