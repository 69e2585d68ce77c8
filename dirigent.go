// Package dirigent is a faithful, simulation-backed reproduction of
// "Dirigent: Enforcing QoS for Latency-Critical Tasks on Shared Multicore
// Systems" (Zhu & Erez, ASPLOS 2016).
//
// It provides:
//
//   - A deterministic interval simulator of the paper's evaluation platform
//     — a 6-core machine with per-core DVFS, a CAT-style way-partitioned
//     15 MB LLC with cache-inertia dynamics, and a bandwidth-contended
//     memory system (NewMachine, DefaultMachineConfig).
//   - Phase-structured synthetic workload models standing in for the
//     paper's PARSEC foreground and SPEC/MLPack background benchmarks
//     (FGBenchmarks, BGBenchmarks, BenchmarkByName).
//   - The Dirigent system itself: the offline profiler (ProfileBenchmark),
//     the Eq. 1/Eq. 2 execution-time predictor (NewPredictor), the fine
//     time scale DVFS/pause controller and coarse time scale partition
//     controller, and the runtime that assembles them (NewRuntime). The
//     controllers run at the paper's fixed parameters (§4.2–4.3): the
//     runtime samples every ΔT of its profiles, and RuntimeConfig selects
//     only the targets, the policy, partitioning, telemetry, fault
//     injection and re-profiling.
//   - The evaluation harness that regenerates every table and figure of
//     the paper (NewRunner and the Fig* helpers in this package).
//
// Quick start (see examples/quickstart for the runnable version):
//
//	m := dirigent.NewMachine(dirigent.DefaultMachineConfig())
//	colo, _ := dirigent.NewColocation(m, fgBenchmarks, bgSpecs, opts)
//	profile, _ := dirigent.ProfileBenchmark(fg, dirigent.ProfilerOptions{})
//	rt, _ := dirigent.NewRuntime(colo, []*dirigent.Profile{profile},
//	    dirigent.RuntimeConfig{Targets: []time.Duration{target}})
//	rt.RunExecutions(100, limit)
package dirigent

import (
	"io"

	"dirigent/internal/cache"
	"dirigent/internal/config"
	"dirigent/internal/core"
	"dirigent/internal/experiment"
	"dirigent/internal/machine"
	"dirigent/internal/mem"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// --- Simulated platform ---

// Machine is the simulated multicore system (cores + DVFS + LLC + memory +
// performance counters).
type Machine = machine.Machine

// MachineConfig describes a machine.
type MachineConfig = machine.Config

// CacheConfig describes the LLC geometry.
type CacheConfig = cache.Config

// MemoryConfig describes the memory system.
type MemoryConfig = mem.Config

// LLC is the way-partitioned last-level cache.
type LLC = cache.LLC

// ClassID identifies an LLC partition class (a CAT CLOS).
type ClassID = cache.ClassID

// Time is an instant on the simulated timeline.
type Time = sim.Time

// CoreSet describes one homogeneous group of cores inside a heterogeneous
// machine configuration (count, frequency/IPC scaling, memory socket).
type CoreSet = machine.CoreSet

// DefaultMachineConfig mirrors the paper's Xeon E5-2618L v3 platform.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// MachineClassNames lists the registered machine classes (sorted).
func MachineClassNames() []string { return machine.ClassNames() }

// MachineClassConfig returns the configuration of a registered machine
// class ("" selects the default class, the paper's Xeon).
func MachineClassConfig(name string) (MachineConfig, error) { return machine.ClassConfig(name) }

// NewMachine builds a machine; it panics on an invalid configuration (use
// machine configs derived from DefaultMachineConfig).
func NewMachine(cfg MachineConfig) *Machine { return machine.MustNew(cfg) }

// --- Workloads ---

// Benchmark is a phase-structured synthetic workload model.
type Benchmark = workload.Benchmark

// BenchPhase is one phase of a benchmark.
type BenchPhase = workload.Phase

// Program is a running instance of a benchmark.
type Program = workload.Program

// FGBenchmarks returns the five foreground benchmarks (Table 1).
func FGBenchmarks() []*Benchmark { return workload.FG() }

// BGBenchmarks returns the three standalone background benchmarks.
func BGBenchmarks() []*Benchmark { return workload.SingleBG() }

// RotateBenchmarks returns the four rotate-pair background benchmarks.
func RotateBenchmarks() []*Benchmark { return workload.RotateBenchmarks() }

// BenchmarkByName returns a fresh copy of the named catalog benchmark.
func BenchmarkByName(name string) (*Benchmark, error) { return workload.ByName(name) }

// --- Collocation ---

// Colocation places FG streams and BG workers on a machine.
type Colocation = sched.Colocation

// ColocationOptions configures a collocation.
type ColocationOptions = sched.Options

// BGSpec describes one background worker (plain benchmark or rotate pair).
type BGSpec = sched.BGSpec

// FGStream is a foreground benchmark running as a stream of executions.
type FGStream = sched.FGStream

// Execution records one completed foreground execution.
type Execution = sched.Execution

// NewColocation places fg benchmarks and bg workers on a machine.
func NewColocation(m *Machine, fg []*Benchmark, bg []BGSpec, opts ColocationOptions) (*Colocation, error) {
	return sched.New(m, fg, bg, opts)
}

// --- The Dirigent system ---

// Profile is the offline profiling record of an FG benchmark (§4.1).
type Profile = core.Profile

// ProfilerOptions configures offline profiling.
type ProfilerOptions = core.ProfilerOptions

// Predictor is the Eq. 1/Eq. 2 execution-time predictor (§4.2).
type Predictor = core.Predictor

// Runtime is the assembled Dirigent runtime (§4).
type Runtime = core.Runtime

// RuntimeConfig configures a runtime.
type RuntimeConfig = core.RuntimeConfig

// ProfileBenchmark runs the offline profiler for an FG benchmark.
func ProfileBenchmark(b *Benchmark, opts ProfilerOptions) (*Profile, error) {
	return core.ProfileBenchmark(b, opts)
}

// OnlineProfileOptions configures in-place profiling.
type OnlineProfileOptions = core.OnlineProfileOptions

// ProfileOnline profiles an FG stream in place by pausing the collocation's
// background tasks (the paper's §7 online-profiling extension).
func ProfileOnline(colo *Colocation, stream int, opts OnlineProfileOptions) (*Profile, error) {
	return core.ProfileOnline(colo, stream, opts)
}

// NewPredictor builds a predictor over a profile; weight 0 means the
// paper's 0.2.
func NewPredictor(profile *Profile, weight float64) (*Predictor, error) {
	return core.NewPredictor(profile, weight)
}

// NewRuntime assembles Dirigent over a collocation.
func NewRuntime(colo *Colocation, profiles []*Profile, cfg RuntimeConfig) (*Runtime, error) {
	return core.NewRuntime(colo, profiles, cfg)
}

// --- Telemetry ---

// Recorder is the typed event bus every subsystem reports through: the
// machine, both controllers, the predictor, the scheduler, and the
// evaluation harness emit structured events onto one Recorder. Recording is
// strictly observational — results are byte-identical with or without one
// attached. Set RuntimeConfig.Recorder (or Runner.Recorder) to receive the
// stream.
type Recorder = telemetry.Recorder

// Event is one telemetry record; EventKind discriminates which field groups
// are meaningful.
type Event = telemetry.Event

// EventKind identifies the type of a telemetry event.
type EventKind = telemetry.Kind

// FineStats are the fine-controller counters aggregated from the event
// stream (RunResult.Fine).
type FineStats = telemetry.FineStats

// Aggregator folds an event stream into the cross-run statistics the
// evaluation reports.
type Aggregator = telemetry.Aggregator

// JSONLRecorder writes one JSON object per event, newline-delimited.
type JSONLRecorder = telemetry.JSONL

// NopRecorder returns the shared zero-cost no-op recorder.
func NopRecorder() Recorder { return telemetry.Nop() }

// NewAggregator returns an empty in-memory aggregating sink.
func NewAggregator() *Aggregator { return telemetry.NewAggregator() }

// NewJSONLRecorder returns a JSONL trace sink writing to w. Per-quantum
// machine events are excluded by default; opt in with
// Include(QuantumStepEvent).
func NewJSONLRecorder(w io.Writer) *JSONLRecorder { return telemetry.NewJSONL(w) }

// TeeRecorders fans one event stream out to several sinks.
func TeeRecorders(sinks ...Recorder) Recorder { return telemetry.Tee(sinks...) }

// WithRunLabel stamps every event recorded through r with a run label.
func WithRunLabel(r Recorder, run string) Recorder { return telemetry.WithRun(r, run) }

// The event kinds (see the telemetry package docs for per-kind fields).
const (
	MachineStartEvent      = telemetry.KindMachineStart
	QuantumStepEvent       = telemetry.KindQuantumStep
	DVFSTransitionEvent    = telemetry.KindDVFSTransition
	PartitionMoveEvent     = telemetry.KindPartitionMove
	TaskLaunchEvent        = telemetry.KindTaskLaunch
	TaskKillEvent          = telemetry.KindTaskKill
	TaskPauseEvent         = telemetry.KindTaskPause
	TaskResumeEvent        = telemetry.KindTaskResume
	TaskSwitchEvent        = telemetry.KindTaskSwitch
	SegmentPenaltyEvent    = telemetry.KindSegmentPenalty
	ExecutionCompleteEvent = telemetry.KindExecutionComplete
	FineDecisionEvent      = telemetry.KindFineDecision
	FineActionEvent        = telemetry.KindFineAction
	CoarseDecisionEvent    = telemetry.KindCoarseDecision
)

// --- Evaluation harness ---

// ConfigName identifies one of the five evaluated configurations.
type ConfigName = config.Name

// The five configurations of §5.4.
const (
	Baseline     = config.Baseline
	StaticFreq   = config.StaticFreq
	StaticBoth   = config.StaticBoth
	DirigentFreq = config.DirigentFreq
	Dirigent     = config.Dirigent
)

// Mix is one workload combination of the evaluation.
type Mix = experiment.Mix

// Runner executes mixes under the five configurations.
type Runner = experiment.Runner

// MixResult bundles a mix's runs across configurations.
type MixResult = experiment.MixResult

// RunResult is one mix under one configuration.
type RunResult = experiment.RunResult

// NewRunner returns an evaluation runner with the paper's defaults.
func NewRunner() *Runner { return experiment.NewRunner() }

// SingleBGMixes returns the 15 single-BG mixes (Fig. 9a).
func SingleBGMixes() []Mix { return experiment.SingleBGMixes() }

// RotateBGMixes returns the 20 rotate-BG mixes (Fig. 9b).
func RotateBGMixes() []Mix { return experiment.RotateBGMixes() }

// MultiFGMixes returns the 15 multi-FG mixes (Fig. 9c).
func MultiFGMixes() []Mix { return experiment.MultiFGMixes() }

// AllSingleFGMixes returns the 35 single-FG mixes (Fig. 7/10).
func AllSingleFGMixes() []Mix { return experiment.AllSingleFGMixes() }
