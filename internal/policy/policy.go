// Package policy defines the pluggable QoS policy engine: the contract a
// shared-multicore QoS controller implements (Policy), the actuator
// capabilities it declares (Capabilities), and the resources the runtime
// hands it at attach time (Binding). The paper's own controller pair — the
// fine time scale DVFS/pause controller plus the coarse time scale LLC
// partitioner — lives here as the Dirigent policy; rival schemes from the
// literature (RTGang, CORDLike) implement the same interface, so the
// runtime, the experiment harness, and the server compare policies without
// special-casing any of them.
//
// A policy never owns placement: internal/sched pins tasks to cores and
// internal/core samples progress and predicts completions. The policy only
// decides how to shift resources — DVFS grades, pause/resume, LLC ways —
// between the FG and BG task sets it was bound to.
package policy

import (
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/machine"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// Capabilities declares which optional actuators a policy drives. The
// runtime uses it to validate the assembly (a policy partitioning the LLC
// needs distinct FG/BG cache classes) and the harness uses it to decide
// whether a converged partition is meaningful for a run.
type Capabilities struct {
	// LLCWays: the policy repartitions LLC ways between the FG and BG
	// classes (requires distinct classes in the Binding).
	LLCWays bool
}

// StreamProfile is the per-FG-stream offline-profile summary a policy may
// consult at Init. Static policies (CORDLike) decompose deadlines against
// StandaloneDuration; adaptive policies typically ignore it.
type StreamProfile struct {
	// StandaloneDuration is the execution time recorded by the offline
	// profiler with the machine otherwise idle (zero when unknown).
	StandaloneDuration time.Duration
}

// Binding is everything the runtime hands a policy at Init: the machine,
// the FG/BG task sets (parallel slices), per-stream targets and profiles,
// and — when the assembly is partitioned — the LLC with the FG/BG class
// IDs. Slices are owned by the caller; policies must copy what they keep.
type Binding struct {
	// Machine is the actuation surface (DVFS, pause/resume).
	Machine *machine.Machine

	// FGTasks/FGCores/FGStreams identify the foreground set: task IDs,
	// their cores, and their stable stream indices (parallel slices).
	FGTasks   []int
	FGCores   []int
	FGStreams []int
	// BGTasks/BGCores identify the background set (parallel slices).
	BGTasks []int
	BGCores []int

	// Targets are the per-FG-stream relative latency targets, parallel to
	// FGStreams.
	Targets []time.Duration
	// Profiles are per-FG-stream offline-profile summaries, parallel to
	// FGStreams (zero-valued entries when no profile is available).
	Profiles []StreamProfile

	// LLC plus FGClass/BGClass describe the cache partition surface; LLC is
	// nil (and the classes zero) when the assembly is unpartitioned.
	LLC     *cache.LLC
	FGClass cache.ClassID
	BGClass cache.ClassID

	// Recorder receives the policy's decision/action events; never nil by
	// the time Init runs (the runtime passes a policy-labelled bus).
	Recorder telemetry.Recorder
}

// ExecutionSample is one completed FG execution as reported to
// Policy.OnExecution.
type ExecutionSample struct {
	// End is the simulated completion time.
	End sim.Time
	// Duration is the execution's wall time.
	Duration time.Duration
	// LLCMisses are the misses attributed to the execution.
	LLCMisses float64
	// Missed reports whether Duration exceeded the stream's target.
	Missed bool
}

// Policy is a pluggable QoS controller. The runtime drives the lifecycle:
// Init once at assembly, Tick at every decision point (every
// DefaultDecisionSegments progress samples), OnExecution at each FG execution
// boundary, and the Add/Remove hooks on mid-run admission changes.
//
// Implementations must be deterministic — no time, randomness, or I/O —
// and must tolerate dropped actuations (machine.ErrActuation) by retrying
// at a later Tick, exactly as the Dirigent controllers do.
type Policy interface {
	// Name returns the policy's registered name (e.g. "dirigent").
	Name() string
	// Capabilities declares the actuators the policy uses.
	Capabilities() Capabilities
	// Init attaches the policy to an assembled colocation. It applies the
	// policy's initial actuation state (core pinning, initial partition).
	Init(b Binding) error
	// Tick runs one decision. status carries the predicted completion,
	// absolute deadline, and relative target of every active FG stream, in
	// stream order (policies that do not use predictions may ignore it).
	Tick(now sim.Time, status []FGStatus) error
	// OnExecution reports one completed FG execution on the given stream.
	OnExecution(stream int, e ExecutionSample)
	// AddFG/RemoveFG and AddBG/RemoveBG track mid-run admission changes;
	// stream is the new FG task's stable stream index.
	AddFG(task, core, stream int) error
	RemoveFG(task int) error
	AddBG(task, core int) error
	RemoveBG(task int) error
	// Window returns the decision-window counters accumulated since the
	// last ResetWindow — the stats contract observers (and Dirigent's own
	// coarse controller) consume.
	Window() FineWindow
	// ResetWindow zeroes the window.
	ResetWindow()
}
