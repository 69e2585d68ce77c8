// Package telemetry is the structured event/metrics layer every other
// subsystem reports through. The machine, the fine and coarse controllers,
// the predictor, the scheduler, and the evaluation harness all emit typed
// events onto a single Recorder instead of hand-rolling private counters;
// every figure-level statistic the harness reports is derived from the same
// event stream a user can trace to disk.
//
// Three sinks cover the use cases:
//
//   - Nop: the default. Zero allocation, zero branches beyond one
//     interface call; hot paths additionally gate event construction on
//     Enabled so the per-quantum cost with telemetry off is negligible.
//   - Aggregator: in-memory accumulation of the cross-run statistics the
//     evaluation harness needs (frequency residency, partition history,
//     controller action counters, execution counts).
//   - JSONL: a line-delimited JSON trace writer for offline replay and
//     external tooling (dirigent-sim --trace / dirigent-bench --trace).
//
// Recorders compose: Tee fans one stream out to several sinks, WithRun
// stamps every event with a run label so traces from interleaved runs stay
// attributable.
package telemetry

import (
	"time"

	"dirigent/internal/sim"
)

// Kind identifies the type of an event and which Event fields are
// meaningful for it.
type Kind uint8

const (
	// KindMachineStart is emitted when a recorder is attached to a
	// machine; it carries the geometry (cores, frequency levels, quantum)
	// sinks need to interpret later events.
	// Fields: Cores, Levels, TopLevel, Quantum.
	KindMachineStart Kind = 1 + iota
	// KindQuantumStep is the machine hot-path event: one per simulation
	// quantum, with machine-wide aggregates for that quantum.
	// Fields: Utilization, Instructions, LLCMisses, Completions.
	KindQuantumStep
	// KindDVFSTransition reports a core frequency-level change.
	// Fields: Core, FromLevel, ToLevel.
	KindDVFSTransition
	// KindPartitionMove reports an applied LLC way-partition change (the
	// coarse controller's CAT action), including the initial partition
	// (Delta 0, Reason ReasonInitialPartition).
	// Fields: FGWays, Delta, ExecCount, Reason.
	KindPartitionMove
	// KindTaskLaunch / KindTaskKill report task placement and removal.
	// Fields: Task, Core, Name.
	KindTaskLaunch
	KindTaskKill
	// KindTaskPause / KindTaskResume report machine-level task state
	// transitions (emitted only on actual state changes).
	// Fields: Task, Core.
	KindTaskPause
	KindTaskResume
	// KindTaskSwitch reports a program swap on a live task (rotate-BG
	// context switches). Fields: Task, Core, Name (new benchmark).
	KindTaskSwitch
	// KindSegmentPenalty is emitted by the predictor at each milestone
	// crossing with the Eq. 1 quantities for the traversed segment.
	// Fields: Stream, Segment, Duration (measured), Penalty, Alpha.
	KindSegmentPenalty
	// KindExecutionComplete reports one finished FG execution.
	// Fields: Stream, Task, Duration, Instructions, LLCMisses.
	KindExecutionComplete
	// KindFineDecision is one fine time scale control decision with its
	// triggering predicate.
	// Fields: Reason, Behind, Ahead, Streams, Slack (worst), Suppressed.
	KindFineDecision
	// KindFineAction is one resource-shift action taken within a fine
	// decision. Fields: Action, and Task/Core/Stream when targeted.
	KindFineAction
	// KindCoarseDecision is one coarse time scale invocation (whether or
	// not it changed the partition).
	// Fields: Reason, Delta, FGWays, ExecCount.
	KindCoarseDecision
	// KindFault is one injected fault (internal/fault): Reason carries the
	// fault class wire name, Duration the injected latency for delayed
	// actuation classes, and Task/Core/Stream the identity the fault hit
	// (-1 where not applicable).
	KindFault
	// KindReprofile reports the runtime re-profiling a stream in place
	// after detecting chronic profile mismatch (sustained α drift).
	// Fields: Stream, Alpha (the drift that triggered), Duration (the
	// simulated time profiling took), Suppressed (true when profiling
	// failed and the stale profile was kept).
	KindReprofile

	numKinds
)

var kindNames = [numKinds]string{
	KindMachineStart:      "machine_start",
	KindQuantumStep:       "quantum_step",
	KindDVFSTransition:    "dvfs",
	KindPartitionMove:     "partition",
	KindTaskLaunch:        "launch",
	KindTaskKill:          "kill",
	KindTaskPause:         "pause",
	KindTaskResume:        "resume",
	KindTaskSwitch:        "switch",
	KindSegmentPenalty:    "segment",
	KindExecutionComplete: "execution",
	KindFineDecision:      "fine_decision",
	KindFineAction:        "fine_action",
	KindCoarseDecision:    "coarse_decision",
	KindFault:             "fault",
	KindReprofile:         "reprofile",
}

// String returns the stable wire name of the kind (used in JSONL traces).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds returns every defined event kind.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Action is a fine-controller resource-shift action.
type Action uint8

const (
	ActionNone Action = iota
	// ActionFGMaxBoost: a lagging FG core was raised to the top grade.
	ActionFGMaxBoost
	// ActionFGThrottle: an ahead FG core was stepped down one grade.
	ActionFGThrottle
	// ActionBGThrottle: the active BG cores were stepped down one grade.
	ActionBGThrottle
	// ActionBGSpeedup: the active BG cores were stepped up one grade.
	ActionBGSpeedup
	// ActionBGPause: the most intrusive BG task was paused.
	ActionBGPause
	// ActionBGResume: all paused BG tasks were resumed.
	ActionBGResume
	// ActionActuationFail: a DVFS/pause/resume actuation the controller
	// requested was dropped (injected fault); the controller retries on a
	// later decision.
	ActionActuationFail
	// ActionGangSwitch: the RT-Gang policy rotated the active FG gang; the
	// event's Task/Core/Stream identify the newly resumed gang.
	ActionGangSwitch
)

var actionNames = [...]string{
	ActionNone:          "none",
	ActionFGMaxBoost:    "fg_max_boost",
	ActionFGThrottle:    "fg_throttle",
	ActionBGThrottle:    "bg_throttle",
	ActionBGSpeedup:     "bg_speedup",
	ActionBGPause:       "bg_pause",
	ActionBGResume:      "bg_resume",
	ActionActuationFail: "actuation_fail",
	ActionGangSwitch:    "gang_switch",
}

// String returns the stable wire name of the action.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "unknown"
}

// Reason labels the predicate that triggered a controller decision.
type Reason string

// Fine time scale decision reasons (§4.3).
const (
	// ReasonFGBehind: at least one FG stream is predicted behind target.
	ReasonFGBehind Reason = "fg-behind"
	// ReasonAllAhead: every FG stream is predicted comfortably ahead.
	ReasonAllAhead Reason = "all-ahead"
	// ReasonSteady: no stream crossed either margin; no action.
	ReasonSteady Reason = "steady"
)

// Coarse time scale decision reasons (the three §4.3 heuristics).
const (
	// ReasonInitialPartition labels the partition applied at construction.
	ReasonInitialPartition Reason = "initial-partition"
	// ReasonCorrelation: heuristic 1 — execution time correlates with FG
	// LLC misses and a deadline was missed recently.
	ReasonCorrelation Reason = "h1-correlation"
	// ReasonRevertGrow: heuristic 2 — the previous grow did not reduce
	// misses and is undone.
	ReasonRevertGrow Reason = "h2-revert-grow"
	// ReasonBGSuppressed: heuristic 3 — the fine controller reports BG
	// tasks heavily suppressed.
	ReasonBGSuppressed Reason = "h3-bg-suppressed"
	// ReasonNoChange: no heuristic fired.
	ReasonNoChange Reason = "no-change"
)

// Rival-policy decision reasons (internal/policy).
const (
	// ReasonGangActive labels an RT-Gang invariant-enforcement decision.
	ReasonGangActive Reason = "gang-active"
	// ReasonStaticDecomposition labels the CORD-style policy's static
	// allocation: its initial partition move and its re-assert decisions.
	ReasonStaticDecomposition Reason = "static-decomposition"
)

// Event is one telemetry record. It is a flat value type — recording an
// event allocates nothing — with a Kind discriminant; only the field groups
// documented on each Kind are meaningful for that kind.
type Event struct {
	Kind Kind
	// At is the simulated time of the event.
	At sim.Time
	// Run is an optional run label stamped by WithRun.
	Run string
	// Policy is an optional QoS-policy label stamped by WithPolicy: the
	// runtime wraps each policy's recorder so its action/decision events
	// stay distinguishable when several policies share one stream.
	Policy string

	// Identity of the task/core/stream the event concerns (kind-dependent).
	Task   int
	Core   int
	Stream int
	// Name is a benchmark/task name where relevant.
	Name string

	// Machine geometry (KindMachineStart).
	Cores    int
	Levels   int
	TopLevel int
	Quantum  time.Duration

	// Per-quantum aggregates (KindQuantumStep).
	Utilization  float64
	Instructions float64
	LLCMisses    float64
	Completions  int

	// DVFS transition (KindDVFSTransition).
	FromLevel int
	ToLevel   int

	// Partition state (KindPartitionMove, KindCoarseDecision).
	FGWays    int
	Delta     int
	ExecCount int

	// Segment / execution quantities (KindSegmentPenalty,
	// KindExecutionComplete).
	Segment  int
	Duration time.Duration
	Penalty  time.Duration
	Alpha    float64

	// Controller decision payload (KindFineDecision, KindFineAction,
	// KindCoarseDecision).
	Action     Action
	Reason     Reason
	Slack      float64
	Behind     int
	Ahead      int
	Streams    int
	Suppressed bool
}

// Recorder is the event bus interface. Implementations must not mutate
// simulation state: recording is strictly observational, so a run's results
// are byte-identical with any recorder attached or none.
//
// Enabled lets hot paths skip event construction entirely when a kind is
// not consumed; Record may assume it is only called for enabled kinds but
// must tolerate others.
type Recorder interface {
	// Enabled reports whether events of kind k are consumed.
	Enabled(k Kind) bool
	// Record delivers one event. Events arrive in simulation order within
	// a run; implementations used across concurrent runs must lock.
	Record(ev Event)
}

// QuantumBatcher is an optional Recorder extension for the machine's
// StepN batches: a sink implementing it receives a run of
// consecutive KindQuantumStep events in one call instead of one Record per
// quantum. RecordQuantumSteps must be observationally identical to calling
// Record on each event in order. The machine guarantees no other event is
// emitted inside a batch (it flushes before e.g. a DVFS transition), so
// batch-aware sinks may fold per-batch state — the aggregator advances
// frequency residency once per batch — without changing results.
// Implementations must not retain or mutate evs: the slice is the
// machine's reused buffer.
type QuantumBatcher interface {
	RecordQuantumSteps(evs []Event)
}

// nop is the zero-cost default recorder.
type nop struct{}

func (nop) Enabled(Kind) bool { return false }
func (nop) Record(Event)      {}

var nopRecorder Recorder = nop{}

// Nop returns the shared no-op recorder.
func Nop() Recorder { return nopRecorder }

// OrNop returns r, or the no-op recorder when r is nil, so components can
// store a Recorder unconditionally and emit without nil checks.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return nopRecorder
	}
	return r
}

// IsNop reports whether r is the shared no-op recorder (or nil).
func IsNop(r Recorder) bool { return r == nil || r == nopRecorder }

// tee fans events out to several sinks.
type tee struct {
	sinks []Recorder
}

// Tee returns a recorder that forwards each event to every non-nil,
// non-noop sink that has its kind enabled. With zero real sinks it returns
// Nop; with one it returns that sink directly.
func Tee(sinks ...Recorder) Recorder {
	real := make([]Recorder, 0, len(sinks))
	for _, s := range sinks {
		if !IsNop(s) {
			real = append(real, s)
		}
	}
	switch len(real) {
	case 0:
		return nopRecorder
	case 1:
		return real[0]
	}
	return &tee{sinks: real}
}

func (t *tee) Enabled(k Kind) bool {
	for _, s := range t.sinks {
		if s.Enabled(k) {
			return true
		}
	}
	return false
}

func (t *tee) Record(ev Event) {
	for _, s := range t.sinks {
		if s.Enabled(ev.Kind) {
			s.Record(ev)
		}
	}
}

// RecordQuantumSteps forwards a batch to every sink, using each sink's own
// batch path when it has one.
func (t *tee) RecordQuantumSteps(evs []Event) {
	for _, s := range t.sinks {
		if !s.Enabled(KindQuantumStep) {
			continue
		}
		if qb, ok := s.(QuantumBatcher); ok {
			qb.RecordQuantumSteps(evs)
			continue
		}
		for i := range evs {
			s.Record(evs[i])
		}
	}
}

// runScope stamps a run label onto every event.
type runScope struct {
	r   Recorder
	run string

	// scratch holds the stamped copy of a quantum-step batch: the incoming
	// slice is the machine's reused buffer and must not be mutated.
	scratch []Event
}

// WithRun wraps r so every recorded event carries the given run label; use
// it to keep events attributable when several runs share one sink (the
// harness labels events "mix/config").
func WithRun(r Recorder, run string) Recorder {
	if IsNop(r) {
		return nopRecorder
	}
	return &runScope{r: r, run: run}
}

func (s *runScope) Enabled(k Kind) bool { return s.r.Enabled(k) }

func (s *runScope) Record(ev Event) {
	ev.Run = s.run
	s.r.Record(ev)
}

// RecordQuantumSteps stamps the run label onto a private copy of the batch
// and forwards it.
func (s *runScope) RecordQuantumSteps(evs []Event) {
	s.scratch = append(s.scratch[:0], evs...)
	for i := range s.scratch {
		s.scratch[i].Run = s.run
	}
	if qb, ok := s.r.(QuantumBatcher); ok {
		qb.RecordQuantumSteps(s.scratch)
		return
	}
	for i := range s.scratch {
		s.r.Record(s.scratch[i])
	}
}

// policyScope stamps a policy label onto every event. It wraps only a
// policy's Binding recorder, which never carries quantum-step batches.
type policyScope struct {
	r      Recorder
	policy string
}

// WithPolicy wraps r so every recorded event carries the given QoS-policy
// label; the runtime wraps the recorder it hands each policy, so the
// policy's decision/action events (and everything else it emits) stay
// attributable in mixed traces.
func WithPolicy(r Recorder, policy string) Recorder {
	if IsNop(r) {
		return nopRecorder
	}
	return &policyScope{r: r, policy: policy}
}

func (s *policyScope) Enabled(k Kind) bool { return s.r.Enabled(k) }

func (s *policyScope) Record(ev Event) {
	ev.Policy = s.policy
	s.r.Record(ev)
}
