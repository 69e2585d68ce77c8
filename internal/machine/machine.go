// Package machine assembles the simulated multicore: cores with per-core
// DVFS, the way-partitioned LLC, the contended memory system, and the
// performance-counter file. It mirrors the paper's evaluation platform — a
// 6-core Intel Xeon E5-2618L v3 at a nominal 2 GHz with nine frequency
// steps from 1.2 to 2.0 GHz, a 15 MB 20-way L3 with Intel CAT, and four
// DDR4-2133 channels (§5.1).
//
// The machine is an interval simulator. Each quantum (250 µs by default)
// resolves, for every running task, the coupled system
//
//	instructions ← cycles / CPI_eff
//	CPI_eff      ← BaseCPI·jitter + missPerInstr · memLatency(U)·f / MLP
//	U            ← Σ missBytes / (peakBandwidth · Δq)
//
// by damped fixed-point iteration, then commits the result: performance
// counters are charged, LLC occupancy advances (cache inertia), memory
// counters advance, and programs retire instructions. StepN advances a
// batch of quanta and stops early after any quantum with foreground
// program completions, which it returns; QuantaUntil converts a simulated
// instant into the batch length that reaches it.
package machine

import (
	"errors"
	"fmt"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/fault"
	"dirigent/internal/mem"
	"dirigent/internal/perf"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// ErrActuation marks an actuation request (DVFS transition, pause, resume)
// dropped by an injected fault (Config.Faults). Controllers distinguish it
// from programming errors: an actuation failure is counted, surfaced on the
// telemetry bus, and retried on a later decision rather than treated as a
// logic bug.
var ErrActuation = errors.New("actuation dropped by injected fault")

// BytesPerMiss is the memory traffic per LLC miss: a 64 B fill plus an
// amortized writeback/overfetch, matching measured DRAM traffic per miss on
// the platform class.
const BytesPerMiss = 2 * cache.LineSize

// solverIterations is the number of damped fixed-point iterations per
// quantum. Four is enough for <1% residual at the quantum scale.
const solverIterations = 4

// CoreSet describes a run of consecutive cores sharing one microarchitecture
// and memory socket, the building block of heterogeneous (big.LITTLE-style)
// and multi-socket machine classes. The zero value of every field except
// Count means "like the evaluation machine": unscaled frequency, unscaled
// IPC, socket 0.
type CoreSet struct {
	// Count is the number of consecutive cores in this set. Sets are laid
	// out in declaration order starting at core 0, so a class that lists
	// its big cores first gets foreground streams (which the scheduler
	// places on the lowest cores) on the big cores.
	Count int
	// FreqScale scales the shared DVFS level grid for these cores: level i
	// runs at FreqLevelsGHz[i]·FreqScale. Controllers keep addressing the
	// shared level indices; only the realized clock differs. Zero means 1.
	FreqScale float64
	// IPCScale scales per-cycle throughput: the effective base CPI is
	// BaseCPI/IPCScale, modelling a narrower (in-order, little) core.
	// The memory-bound CPI component is unscaled — stalls are latency,
	// not width. Zero means 1.
	IPCScale float64
	// Socket is the memory socket (index into mem.Config.Sockets) whose
	// bandwidth pool these cores' traffic contends on.
	Socket int
}

// Config describes a machine.
type Config struct {
	// Cores is the number of cores (6 on the evaluation machine).
	Cores int
	// FreqLevelsGHz are the per-core DVFS operating points, ascending. The
	// evaluation machine exposes 1.2–2.0 GHz in 0.1 GHz steps.
	FreqLevelsGHz []float64
	// CoreSets, when non-empty, partitions the Cores into heterogeneous
	// sets (big.LITTLE frequency/IPC scaling, multi-socket placement); the
	// set counts must sum to Cores. Empty (the default) means homogeneous
	// cores on socket 0, byte-identical to machines built before core sets
	// existed.
	CoreSets []CoreSet
	// Quantum is the simulation step.
	Quantum time.Duration
	// Cache configures the LLC.
	Cache cache.Config
	// Memory configures the memory system.
	Memory mem.Config
	// Seed drives all stochastic behaviour (OS-noise jitter).
	Seed uint64
	// SlowJitterSigma is the lognormal sigma of the slowly-varying
	// component of OS noise (interrupt pressure, scheduler placement,
	// thermal state). Unlike the per-quantum benchmark jitter, which
	// averages out over a full execution, this component is held for
	// SlowJitterPeriod at a time and therefore survives into per-execution
	// variance — the residual run-to-run noise every real system exhibits
	// even for compute-bound tasks.
	SlowJitterSigma float64
	// SlowJitterPeriod is how long each slow-noise draw is held.
	SlowJitterPeriod time.Duration
	// Faults, when non-nil, injects actuation faults: SetFreqLevel may fail
	// (ErrActuation) or commit only after a latency, and Pause/Resume may
	// fail. Strictly opt-in — nil (the default) leaves every code path
	// byte-identical to a machine without fault support.
	Faults *fault.Injector
}

// DefaultConfig mirrors the paper's platform.
func DefaultConfig() Config {
	return Config{
		Cores:            6,
		FreqLevelsGHz:    []float64{1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0},
		Quantum:          sim.DefaultQuantum,
		Cache:            cache.DefaultConfig(),
		Memory:           mem.DefaultConfig(),
		Seed:             1,
		SlowJitterSigma:  0.03,
		SlowJitterPeriod: 750 * time.Millisecond,
	}
}

// Completion reports that a foreground task finished one execution.
type Completion struct {
	// Task is the task handle.
	Task int
	// At is the simulated time at the end of the completing quantum.
	At sim.Time
}

// pendingTransition is a DVFS request accepted but not yet committed (the
// fault layer's actuation-latency model).
type pendingTransition struct {
	level int // target level; -1 = none pending
	at    sim.Time
}

// Task is the machine's view of a running process.
type task struct {
	id      int
	name    string
	program *workload.Program
	core    int
	paused  bool
	jitter  sim.LogNormals

	// Slow OS-noise state: the current multiplier and when to redraw.
	slowJitter float64
	slowUntil  sim.Time

	// Resolved per-task handles the step charges through, skipping the LLC
	// and counter map lookups every quantum. Both stay valid for the task's
	// lifetime: class moves mutate the cache state in place, and nothing
	// resets counters mid-run.
	cref   *cache.TaskRef
	sample *perf.Sample
}

// Machine is the simulated multicore system. Not safe for concurrent use.
type Machine struct {
	cfg      Config
	clock    *sim.Clock
	llc      *cache.LLC
	memory   *mem.Memory
	counters *perf.Counters

	coreFreq []int       // frequency level index per core
	cores    []coreState // per-core record: pinned task, clock, solver terms
	tasks    map[int]*task
	nextID   int

	// overheadOwed is per-core time stolen by runtime invocations (the
	// Dirigent runtime is pinned to a BG core and charges ~100 µs per
	// invocation, §4.2); it is consumed from that core's next quanta.
	overheadOwed []time.Duration

	// pendingFreq holds per-core frequency transitions delayed by an
	// injected DVFS-latency fault; Step commits them once due. Level -1
	// means none pending. Only ever populated when cfg.Faults is set.
	pendingFreq []pendingTransition

	// freqResidency accumulates time spent at each frequency level per
	// core, for Fig. 12. It is folded lazily: quanta counts the quanta
	// stepped so far and residencyMark[c] how many of them core c's row
	// already holds, so a quantum costs one increment rather than a
	// per-core update. foldResidency credits the difference to the core's
	// current level before commitFreq changes it and before FreqResidency
	// reads it.
	freqResidency [][]time.Duration
	residencyMark []int64
	quanta        int64

	// Per-core heterogeneity, expanded from Config.CoreSets. For
	// homogeneous machines every ladder entry aliases cfg.FreqLevelsGHz
	// and every cpiScale is exactly 1, so reads are bit-identical to the
	// pre-CoreSet code.
	ladder     [][]float64 // effective GHz per core per level index
	cpiScale   []float64   // BaseCPI multiplier per core (1/IPCScale)
	coreSocket []int       // memory socket per core

	// multiSocket selects the per-socket commit; scratchSockDemand is its
	// reused buffer.
	multiSocket       bool
	scratchSockDemand []float64

	rng *sim.Rand

	// rec is the telemetry bus; never nil (the no-op recorder by
	// default). Hot-path emissions gate on rec.Enabled.
	rec telemetry.Recorder

	// Per-quantum solver state (step/StepN). active lists, ascending, the
	// cores whose task runs (is not paused) this quantum; scratchTraffic is
	// the commit's ApplyFast input. batchQ accumulates quantum-step events
	// across a StepN batch; flushQuanta hands them to recBatch (the
	// recorder's batch interface, when it has one) in a single call.
	active         []int
	scratchTraffic []cache.Traffic
	batchQ         []telemetry.Event
	recBatch       telemetry.QuantumBatcher

	// quantumSec caches cfg.Quantum.Seconds(), so the step reads it instead
	// of re-deriving it every quantum.
	quantumSec float64
}

// coreState is one core's record. ghz and cycles change only at a DVFS
// commit (setClock). The phase terms depend on nothing but the phase and
// the core's cpiScale, so step recomputes them only when the phase pointer
// changes; it writes the per-quantum terms for the active cores only.
type coreState struct {
	task   *task   // nil when idle
	ghz    float64 // clock: ladder[c][coreFreq[c]]
	cycles float64 // counter cycles per quantum: ghz·1e9·quantumSec

	ph   *workload.Phase // phase the terms below were computed for
	apk  float64         // LLC accesses per instruction: APKI/1000
	base float64         // BaseCPI times the core's cpiScale (when ≠ 1)
	mlp  float64         // EffectiveMLP

	work  float64 // ghz·1e9·(compute seconds left after overhead)
	hit   float64 // LLC hit rate at the quantum's start
	mpi   float64 // misses per instruction
	bj    float64 // jittered base CPI
	instr float64 // instructions retired, from the last solver pass
}

// maxBatchQuanta bounds how many quanta one StepN call may advance, capping
// the batched-event buffer and keeping completion latency (the early-stop
// scan) bounded even when a caller passes a huge max.
const maxBatchQuanta = 1024

// New validates cfg and builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("machine: core count %d must be positive", cfg.Cores)
	}
	if len(cfg.FreqLevelsGHz) == 0 {
		return nil, errors.New("machine: no frequency levels")
	}
	for i, f := range cfg.FreqLevelsGHz {
		if f <= 0 {
			return nil, fmt.Errorf("machine: frequency level %d (%g GHz) must be positive", i, f)
		}
		if i > 0 && f <= cfg.FreqLevelsGHz[i-1] {
			return nil, errors.New("machine: frequency levels must be strictly ascending")
		}
	}
	clock, err := sim.NewClock(cfg.Quantum)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	memory, err := mem.New(cfg.Memory)
	if err != nil {
		return nil, err
	}
	counters, err := perf.New(cfg.Cores)
	if err != nil {
		return nil, err
	}
	sockets := memory.NumSockets()
	if len(cfg.CoreSets) > 0 {
		total := 0
		for i, cs := range cfg.CoreSets {
			if cs.Count <= 0 {
				return nil, fmt.Errorf("machine: core set %d count %d must be positive", i, cs.Count)
			}
			if cs.FreqScale < 0 {
				return nil, fmt.Errorf("machine: core set %d frequency scale %g must be positive", i, cs.FreqScale)
			}
			if cs.IPCScale < 0 {
				return nil, fmt.Errorf("machine: core set %d IPC scale %g must be positive", i, cs.IPCScale)
			}
			if cs.Socket < 0 || cs.Socket >= sockets {
				return nil, fmt.Errorf("machine: core set %d socket %d out of range [0,%d)", i, cs.Socket, sockets)
			}
			total += cs.Count
		}
		if total != cfg.Cores {
			return nil, fmt.Errorf("machine: core sets cover %d cores, config has %d", total, cfg.Cores)
		}
	}
	m := &Machine{
		cfg:            cfg,
		clock:          clock,
		llc:            llc,
		memory:         memory,
		counters:       counters,
		coreFreq:       make([]int, cfg.Cores),
		cores:          make([]coreState, cfg.Cores),
		tasks:          map[int]*task{},
		nextID:         1,
		overheadOwed:   make([]time.Duration, cfg.Cores),
		freqResidency:  make([][]time.Duration, cfg.Cores),
		residencyMark:  make([]int64, cfg.Cores),
		ladder:         make([][]float64, cfg.Cores),
		cpiScale:       make([]float64, cfg.Cores),
		coreSocket:     make([]int, cfg.Cores),
		multiSocket:    sockets > 1,
		rng:            sim.NewRand(cfg.Seed),
		rec:            telemetry.Nop(),
		active:         make([]int, 0, cfg.Cores),
		scratchTraffic: make([]cache.Traffic, 0, cfg.Cores),
	}
	// Expand core sets into per-core ladders, CPI scaling, and socket
	// placement. The homogeneous default aliases the shared level grid so
	// the hot path loads exactly the configured floats.
	for c := 0; c < cfg.Cores; c++ {
		m.ladder[c] = cfg.FreqLevelsGHz
		m.cpiScale[c] = 1
	}
	core := 0
	for _, cs := range cfg.CoreSets {
		lad := cfg.FreqLevelsGHz
		if cs.FreqScale != 0 && cs.FreqScale != 1 {
			lad = make([]float64, len(cfg.FreqLevelsGHz))
			for i, f := range cfg.FreqLevelsGHz {
				lad[i] = f * cs.FreqScale
			}
		}
		scale := 1.0
		if cs.IPCScale != 0 {
			scale = 1 / cs.IPCScale
		}
		for k := 0; k < cs.Count; k++ {
			m.ladder[core] = lad
			m.cpiScale[core] = scale
			m.coreSocket[core] = cs.Socket
			core++
		}
	}
	if m.multiSocket {
		m.scratchSockDemand = make([]float64, sockets)
	}
	// Cores start at maximum frequency.
	top := len(cfg.FreqLevelsGHz) - 1
	m.quantumSec = cfg.Quantum.Seconds()
	for c := range m.coreFreq {
		m.coreFreq[c] = top
		m.freqResidency[c] = make([]time.Duration, len(cfg.FreqLevelsGHz))
		m.setClock(c)
	}
	if cfg.Faults != nil {
		m.pendingFreq = make([]pendingTransition, cfg.Cores)
		for c := range m.pendingFreq {
			m.pendingFreq[c].level = -1
		}
	}
	return m, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetRecorder attaches a telemetry recorder (nil restores the no-op
// default) and announces the machine geometry with a KindMachineStart
// event so sinks can interpret later DVFS/quantum events.
func (m *Machine) SetRecorder(rec telemetry.Recorder) {
	m.rec = telemetry.OrNop(rec)
	m.recBatch, _ = m.rec.(telemetry.QuantumBatcher)
	if m.rec.Enabled(telemetry.KindMachineStart) {
		m.rec.Record(telemetry.Event{
			Kind:     telemetry.KindMachineStart,
			At:       m.clock.Now(),
			Cores:    m.cfg.Cores,
			Levels:   len(m.cfg.FreqLevelsGHz),
			TopLevel: len(m.cfg.FreqLevelsGHz) - 1,
			Quantum:  m.cfg.Quantum,
		})
	}
}

// Recorder returns the attached telemetry recorder (the no-op recorder
// when none is attached); components driven by the machine (the scheduler)
// emit through it.
func (m *Machine) Recorder() telemetry.Recorder { return m.rec }

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.clock.Now() }

// LLC exposes the cache for partition control (the coarse controller's
// CAT interface).
func (m *Machine) LLC() *cache.LLC { return m.llc }

// Counters exposes the performance-counter file.
func (m *Machine) Counters() *perf.Counters { return m.counters }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return m.cfg.Cores }

// Launch places a program on an idle core, registers it with the LLC in the
// given partition class, and returns a task handle.
func (m *Machine) Launch(name string, prog *workload.Program, core int, class cache.ClassID) (int, error) {
	if err := m.checkCore(core); err != nil {
		return 0, err
	}
	if t := m.cores[core].task; t != nil {
		return 0, fmt.Errorf("machine: core %d already runs task %d", core, t.id)
	}
	if prog == nil {
		return 0, errors.New("machine: nil program")
	}
	id := m.nextID
	if err := m.llc.Register(id, class); err != nil {
		return 0, err
	}
	m.nextID++
	t := &task{id: id, name: name, program: prog, core: core, jitter: sim.NewLogNormals(m.rng.Split()), slowJitter: 1,
		cref: m.llc.Ref(id), sample: m.counters.Handle(id)}
	m.tasks[id] = t
	m.cores[core].task = t
	if m.rec.Enabled(telemetry.KindTaskLaunch) {
		m.rec.Record(telemetry.Event{
			Kind: telemetry.KindTaskLaunch, At: m.clock.Now(),
			Task: id, Core: core, Name: name,
		})
	}
	return id, nil
}

// Kill removes a task from the machine and frees its cache footprint.
func (m *Machine) Kill(taskID int) error {
	t, ok := m.tasks[taskID]
	if !ok {
		return fmt.Errorf("machine: unknown task %d", taskID)
	}
	m.cores[t.core].task = nil
	delete(m.tasks, taskID)
	m.llc.Unregister(taskID)
	if m.rec.Enabled(telemetry.KindTaskKill) {
		m.rec.Record(telemetry.Event{
			Kind: telemetry.KindTaskKill, At: m.clock.Now(),
			Task: taskID, Core: t.core, Name: t.name,
		})
	}
	return nil
}

// SetProgram swaps the program a task runs (used by rotate-BG workloads
// when the collocated benchmark "context switches").
func (m *Machine) SetProgram(taskID int, prog *workload.Program) error {
	t, ok := m.tasks[taskID]
	if !ok {
		return fmt.Errorf("machine: unknown task %d", taskID)
	}
	if prog == nil {
		return errors.New("machine: nil program")
	}
	t.program = prog
	if m.rec.Enabled(telemetry.KindTaskSwitch) {
		m.rec.Record(telemetry.Event{
			Kind: telemetry.KindTaskSwitch, At: m.clock.Now(),
			Task: taskID, Core: t.core, Name: prog.Benchmark().Name,
		})
	}
	return nil
}

// Pause stops a task from executing; its core idles and its cache occupancy
// decays under pressure from active tasks.
func (m *Machine) Pause(taskID int) error {
	t, ok := m.tasks[taskID]
	if !ok {
		return fmt.Errorf("machine: unknown task %d", taskID)
	}
	if !t.paused {
		if m.cfg.Faults.PauseFails(m.clock.Now(), taskID, t.core) {
			return fmt.Errorf("machine: pause task %d: %w", taskID, ErrActuation)
		}
		t.paused = true
		if m.rec.Enabled(telemetry.KindTaskPause) {
			m.rec.Record(telemetry.Event{
				Kind: telemetry.KindTaskPause, At: m.clock.Now(),
				Task: taskID, Core: t.core,
			})
		}
	}
	return nil
}

// Resume restarts a paused task.
func (m *Machine) Resume(taskID int) error {
	t, ok := m.tasks[taskID]
	if !ok {
		return fmt.Errorf("machine: unknown task %d", taskID)
	}
	if t.paused {
		if m.cfg.Faults.ResumeFails(m.clock.Now(), taskID, t.core) {
			return fmt.Errorf("machine: resume task %d: %w", taskID, ErrActuation)
		}
		t.paused = false
		if m.rec.Enabled(telemetry.KindTaskResume) {
			m.rec.Record(telemetry.Event{
				Kind: telemetry.KindTaskResume, At: m.clock.Now(),
				Task: taskID, Core: t.core,
			})
		}
	}
	return nil
}

// Paused reports whether a task is paused.
func (m *Machine) Paused(taskID int) (bool, error) {
	t, ok := m.tasks[taskID]
	if !ok {
		return false, fmt.Errorf("machine: unknown task %d", taskID)
	}
	return t.paused, nil
}

func (m *Machine) checkCore(core int) error {
	if core < 0 || core >= m.cfg.Cores {
		return fmt.Errorf("machine: core %d out of range [0,%d)", core, m.cfg.Cores)
	}
	return nil
}

// SetFreqLevel requests a core's DVFS operating point by level index.
// Without fault injection the transition commits immediately. Under an
// injected fault plan the request may fail (ErrActuation) or be accepted
// but commit only after an actuation latency — FreqLevel keeps reporting
// the old level until then, exactly like reading back a sysfs frequency
// mid-transition.
func (m *Machine) SetFreqLevel(core, level int) error {
	if err := m.checkCore(core); err != nil {
		return err
	}
	if level < 0 || level >= len(m.cfg.FreqLevelsGHz) {
		return fmt.Errorf("machine: frequency level %d out of range [0,%d)", level, len(m.cfg.FreqLevelsGHz))
	}
	// The effective target is the pending transition if one is in flight;
	// re-requesting it (or the committed level) is a no-op, not a new
	// actuation.
	target := m.coreFreq[core]
	if m.pendingFreq != nil && m.pendingFreq[core].level >= 0 {
		target = m.pendingFreq[core].level
	}
	if level == target {
		return nil
	}
	if inj := m.cfg.Faults; inj != nil {
		fail, delay := inj.DVFSOutcome(m.clock.Now(), core)
		if fail {
			return fmt.Errorf("machine: set core %d frequency level %d: %w", core, level, ErrActuation)
		}
		if delay > 0 {
			m.pendingFreq[core] = pendingTransition{level: level, at: m.clock.Now() + sim.Time(delay)}
			return nil
		}
		m.pendingFreq[core].level = -1 // an immediate commit supersedes any pending one
	}
	m.commitFreq(core, level)
	return nil
}

// commitFreq applies a frequency transition and emits its event. Any
// batched quantum-step events are flushed first so the recorded stream keeps
// strict time order — and so batch-folding sinks (the aggregator's residency
// accounting) never see a level change inside a batch.
func (m *Machine) commitFreq(core, level int) {
	prev := m.coreFreq[core]
	if prev == level {
		return
	}
	m.flushQuanta()
	m.foldResidency(core)
	m.coreFreq[core] = level
	m.setClock(core)
	if m.rec.Enabled(telemetry.KindDVFSTransition) {
		m.rec.Record(telemetry.Event{
			Kind: telemetry.KindDVFSTransition, At: m.clock.Now(),
			Core: core, FromLevel: prev, ToLevel: level,
		})
	}
}

// setClock refreshes core's clock and per-quantum cycle charge from its
// current level.
func (m *Machine) setClock(core int) {
	cs := &m.cores[core]
	cs.ghz = m.ladder[core][m.coreFreq[core]]
	cs.cycles = cs.ghz * 1e9 * m.quantumSec
}

// FreqLevel returns a core's current DVFS level index.
func (m *Machine) FreqLevel(core int) (int, error) {
	if err := m.checkCore(core); err != nil {
		return 0, err
	}
	return m.coreFreq[core], nil
}

// FreqGHz returns a core's current effective frequency in GHz (the shared
// level grid scaled by the core's set, for heterogeneous classes).
func (m *Machine) FreqGHz(core int) (float64, error) {
	l, err := m.FreqLevel(core)
	if err != nil {
		return 0, err
	}
	return m.ladder[core][l], nil
}

// MaxFreqLevel returns the index of the highest operating point. Level
// indices are shared across cores even on heterogeneous machines; only the
// realized clock differs per core set.
func (m *Machine) MaxFreqLevel() int { return len(m.cfg.FreqLevelsGHz) - 1 }

// CoreMaxFreqGHz returns the effective frequency of a core's top operating
// point — the per-core nominal clock controllers normalize against.
func (m *Machine) CoreMaxFreqGHz(core int) (float64, error) {
	if err := m.checkCore(core); err != nil {
		return 0, err
	}
	return m.ladder[core][len(m.cfg.FreqLevelsGHz)-1], nil
}

// FreqResidency returns the cumulative time core has spent at each
// frequency level (indexed by level), for Fig. 12.
func (m *Machine) FreqResidency(core int) ([]time.Duration, error) {
	if err := m.checkCore(core); err != nil {
		return nil, err
	}
	m.foldResidency(core)
	return append([]time.Duration(nil), m.freqResidency[core]...), nil
}

// foldResidency credits core's current level with the quanta stepped since
// its last fold.
func (m *Machine) foldResidency(core int) {
	m.freqResidency[core][m.coreFreq[core]] += m.cfg.Quantum * time.Duration(m.quanta-m.residencyMark[core])
	m.residencyMark[core] = m.quanta
}

// ChargeOverhead steals d of CPU time from core, consumed from its next
// quanta. It models runtime work (predictor + throttler ≈ 100 µs per
// invocation) pinned to that core.
func (m *Machine) ChargeOverhead(core int, d time.Duration) error {
	if err := m.checkCore(core); err != nil {
		return err
	}
	if d < 0 {
		return fmt.Errorf("machine: negative overhead %v", d)
	}
	m.overheadOwed[core] += d
	return nil
}

// StepN advances the machine by up to max quanta in one batched call and
// returns the last advanced quantum's completions plus how many quanta were
// advanced. It stops early after any quantum that produced completions, so
// callers observe completions at exactly the quantum they occur in — the
// scheduler's completion processing, BG rotation, and policy callbacks all
// fire at the same simulated instants whatever the batch length.
// Quantum-step telemetry is accumulated across the batch and flushed in one
// recorder call on return (and before any mid-batch DVFS commit), keeping
// the event stream byte-identical to per-quantum emission. max is clamped
// to [1, maxBatchQuanta].
func (m *Machine) StepN(max int) ([]Completion, int) {
	if max < 1 {
		max = 1
	}
	if max > maxBatchQuanta {
		max = maxBatchQuanta
	}
	var done []Completion
	n := 0
	for n < max {
		done = m.step()
		n++
		if len(done) > 0 {
			break
		}
	}
	m.flushQuanta()
	return done, n
}

// QuantaUntil returns how many quanta the clock must advance to reach t:
// ceil((t − Now) / quantum), so an instant between quantum boundaries is
// covered by the quantum that crosses it. It is 0 when t is not after Now.
// Every stepping loop converts its stopping instants through here.
func (m *Machine) QuantaUntil(t sim.Time) int {
	now := m.clock.Now()
	if t <= now {
		return 0
	}
	q := sim.Time(m.cfg.Quantum)
	return int((t - now + q - 1) / q)
}

// flushQuanta hands accumulated quantum-step events to the recorder — in
// one call when the recorder batches, else one Record per event. The buffer
// is reused; sinks must not retain it (telemetry.QuantumBatcher's contract).
func (m *Machine) flushQuanta() {
	if len(m.batchQ) == 0 {
		return
	}
	if m.recBatch != nil {
		m.recBatch.RecordQuantumSteps(m.batchQ)
	} else {
		for i := range m.batchQ {
			m.rec.Record(m.batchQ[i])
		}
	}
	m.batchQ = m.batchQ[:0]
}

// step advances one quantum. Every quantum-invariant per-core term (phase,
// frequency, hit rate, miss rate, jittered base CPI, MLP) is hoisted out of
// the solver loop into the core's record, the solver passes and the commit
// walk only the running cores, and the quantum-step event is buffered for
// flushQuanta instead of emitted inline. The floating-point expression
// forms and their evaluation order are pinned bit for bit by the recorded
// goldens (TestStepEnginesEquivalent and the experiment and scenario
// goldens), so reassociating any of them is a deliberate re-baseline.
func (m *Machine) step() []Completion {
	dt := m.cfg.Quantum
	dtSec := m.quantumSec
	now := m.clock.Advance()

	// Commit DVFS transitions whose injected actuation latency has elapsed,
	// before this quantum's frequencies are read. commitFreq flushes the
	// event batch, so the transition lands in stream order.
	if m.pendingFreq != nil {
		for c := range m.pendingFreq {
			if p := m.pendingFreq[c]; p.level >= 0 && now >= p.at {
				m.pendingFreq[c].level = -1
				m.commitFreq(c, p.level)
			}
		}
	}
	m.quanta++

	// Hoist pass: one traversal computes every per-core term the solver
	// iterations and the commit read, and lists the running cores in
	// ascending order. Within a quantum these terms cannot change —
	// occupancy only moves in llc.ApplyFast below, programs only advance at
	// commit. It visits every core because overhead drains on idle cores
	// too. The jitter draws happen here in ascending-core order, one stream
	// per task.
	m.active = m.active[:0]
	for c := range m.cores {
		eff := dtSec
		if owed := m.overheadOwed[c]; owed > 0 {
			steal := owed
			if steal > dt {
				steal = dt
			}
			m.overheadOwed[c] -= steal
			eff = (dt - steal).Seconds()
		}
		cs := &m.cores[c]
		t := cs.task
		if t == nil || t.paused {
			continue
		}
		jitter := 1.0
		if sigma := t.program.Benchmark().CPIJitter; sigma > 0 {
			jitter = t.jitter.Draw(sigma)
		}
		if m.cfg.SlowJitterSigma > 0 {
			if now >= t.slowUntil {
				t.slowJitter = t.jitter.Draw(m.cfg.SlowJitterSigma)
				t.slowUntil = now + sim.Time(m.cfg.SlowJitterPeriod)
			}
			jitter *= t.slowJitter
		}
		if ph := t.program.Phase(); ph != cs.ph {
			cs.ph = ph
			cs.apk = ph.APKI / 1000
			cs.base = ph.BaseCPI
			if s := m.cpiScale[c]; s != 1 {
				cs.base *= s
			}
			cs.mlp = ph.EffectiveMLP()
		}
		cs.work = cs.ghz * 1e9 * eff
		cs.hit = m.llc.HitRateRef(t.cref, cs.ph.WSSBytes, cs.ph.Locality)
		cs.mpi = cs.apk * (1 - cs.hit)
		cs.bj = cs.base * jitter
		m.active = append(m.active, c)
	}

	// Damped fixed point over memory utilization, reading the hoisted terms:
	// one utilization per socket (the shared pool is socket 0). A core's
	// instructions depend only on its own socket's latency, so sockets solve
	// independently. Latency is whole nanoseconds and every other per-core
	// term is fixed within the quantum, so an iteration whose latency equals
	// the previous one's would recompute its socket's instructions and
	// demand bit for bit: it skips the per-core pass and only advances the
	// damped u.
	for s, n := 0, m.memory.NumSockets(); s < n; s++ {
		// The shared pool starts from and converts through what its commit
		// (Apply) uses: LastUtilization and Utilization (mem.New rejects a
		// one-entry Sockets list, so one socket is always the shared pool).
		u := m.memory.LastUtilization()
		if m.multiSocket {
			u = m.memory.LastSocketUtilization(s)
		}
		prevLat := time.Duration(-1)
		uNew := 0.0
		for iter := 0; iter < solverIterations; iter++ {
			if lat := m.memory.Latency(u); lat != prevLat {
				prevLat = lat
				if demand := m.corePass(s, lat); m.multiSocket {
					uNew = m.memory.UtilizationOn(s, demand, dt)
				} else {
					uNew = m.memory.Utilization(demand, dt)
				}
			}
			u = float64(0.5*u) + float64(0.5*uNew)
		}
	}

	// Commit: counters, cache occupancy, memory stats, program progress.
	trs := m.scratchTraffic[:cap(m.scratchTraffic)]
	nTr := 0
	if m.multiSocket {
		for s := range m.scratchSockDemand {
			m.scratchSockDemand[s] = 0
		}
	}
	demand := 0.0
	totInstr, totMisses := 0.0, 0.0
	var completions []Completion
	for _, c := range m.active {
		cs := &m.cores[c]
		t, ph, instr := cs.task, cs.ph, cs.instr
		accesses := instr * ph.APKI / 1000
		missRate := 1 - cs.hit
		misses := float64(accesses * missRate)
		demand += float64(misses * BytesPerMiss)
		if m.multiSocket {
			m.scratchSockDemand[m.coreSocket[c]] += float64(misses * BytesPerMiss)
		}
		totInstr += instr
		totMisses += misses

		// Counters: cycles reflect the full quantum at the core's clock
		// (free-running cycle counter), instructions reflect work done.
		m.counters.ChargeRef(t.sample, c, perf.Sample{
			Instructions: instr,
			Cycles:       cs.cycles,
			LLCAccesses:  accesses,
			LLCMisses:    misses,
		})
		tr := &trs[nTr]
		nTr++
		tr.Task = t.id
		tr.Accesses = accesses
		tr.MissRate = missRate
		tr.WSS = ph.WSSBytes
		tr.Ref = t.cref
		if t.program.Advance(instr) {
			completions = append(completions, Completion{Task: t.id, At: now})
		}
	}
	m.scratchTraffic = trs[:nTr]
	m.llc.ApplyFast(dt, m.scratchTraffic)
	if m.multiSocket {
		m.memory.ApplySockets(m.scratchSockDemand, dt)
	} else {
		m.memory.Apply(demand, dt)
	}
	if m.rec.Enabled(telemetry.KindQuantumStep) {
		// Written in place: batchQ only ever holds quantum-step events,
		// which set exactly the fields below, so a reused slot (or a
		// freshly grown zero one) needs no clearing and no literal is
		// copied.
		n := len(m.batchQ)
		if n < cap(m.batchQ) {
			m.batchQ = m.batchQ[:n+1]
		} else {
			m.batchQ = append(m.batchQ, telemetry.Event{})
		}
		ev := &m.batchQ[n]
		ev.Kind = telemetry.KindQuantumStep
		ev.At = now
		ev.Utilization = m.memory.LastUtilization()
		ev.Instructions = totInstr
		ev.LLCMisses = totMisses
		ev.Completions = len(completions)
	}
	return completions
}

// corePass is one solver pass over socket's running cores at memory
// latency lat: it stores each core's instructions for the quantum in its
// record and returns the socket's miss traffic in bytes. work ≤ 0 (clocks
// are positive) means overhead took the whole quantum.
func (m *Machine) corePass(socket int, lat time.Duration) float64 {
	latNs := float64(lat.Nanoseconds())
	demand := 0.0
	for _, c := range m.active {
		if m.coreSocket[c] != socket {
			continue
		}
		cs := &m.cores[c]
		if cs.work <= 0 {
			cs.instr = 0
			continue
		}
		cpi := cs.bj + cs.mpi*latNs*cs.ghz/cs.mlp
		cs.instr = cs.work / cpi
		demand += float64(cs.instr * cs.mpi * BytesPerMiss)
	}
	return demand
}
