// Package sched manages a collocation: a set of foreground task streams and
// background workers pinned to the cores of one simulated machine.
//
// It owns the task lifecycle the paper assumes around Dirigent: foreground
// benchmarks run as a stream of back-to-back executions (each execution is
// "a task" in the paper's sense — one unit of latency-critical work with a
// deadline); background benchmarks run forever; rotate-BG workers randomly
// switch between their paired benchmarks each time a foreground execution
// completes, mimicking collocated-job context switches (§5.1).
//
// Resource control (DVFS, pausing, cache partitions) is NOT here — that is
// the Dirigent runtime's job (internal/core) or a static configuration's.
// The scheduler only places tasks and tracks completions.
package sched

import (
	"errors"
	"fmt"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/machine"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// BGSpec describes one background worker: either a single benchmark or a
// rotate pair.
type BGSpec struct {
	// Bench is the benchmark for a plain worker. Nil if Pair is set.
	Bench *workload.Benchmark
	// Pair holds the two benchmarks of a rotate worker. Both nil if Bench
	// is set.
	Pair [2]*workload.Benchmark
}

// IsRotate reports whether the spec is a rotate pair.
func (s BGSpec) IsRotate() bool { return s.Pair[0] != nil || s.Pair[1] != nil }

// Name returns a human-readable name for the worker.
func (s BGSpec) Name() string {
	if s.IsRotate() {
		return s.Pair[0].Name + "+" + s.Pair[1].Name
	}
	if s.Bench != nil {
		return s.Bench.Name
	}
	return "<empty>"
}

// Validate checks that exactly one of Bench/Pair is populated.
func (s BGSpec) Validate() error {
	switch {
	case s.Bench != nil && s.IsRotate():
		return errors.New("sched: BG spec has both a benchmark and a pair")
	case s.Bench == nil && !s.IsRotate():
		return errors.New("sched: empty BG spec")
	case s.IsRotate() && (s.Pair[0] == nil || s.Pair[1] == nil):
		return errors.New("sched: rotate pair must name two benchmarks")
	}
	return nil
}

// Execution records one completed foreground execution.
type Execution struct {
	// End is the simulated completion time.
	End sim.Time
	// Duration is the execution time, from the previous completion (or the
	// stream's start) to End — the quantity whose variance Dirigent
	// minimizes.
	Duration time.Duration
	// LLCMisses is the misses the FG task incurred during this execution
	// (input to the coarse controller's correlation heuristic).
	LLCMisses float64
	// Instructions retired during this execution.
	Instructions float64
}

// FGStream is a foreground benchmark running as a stream of executions on
// one core.
type FGStream struct {
	Bench *workload.Benchmark
	Task  int
	Core  int

	execs     []Execution
	lastStart sim.Time
	lastPerf  perfSnapshot
	removed   bool
}

// Removed reports whether the stream was evicted mid-run (RemoveFG). A
// removed stream keeps its slot — stream indices stay stable for telemetry
// and result collection — but its task is dead and it completes nothing
// further.
func (f *FGStream) Removed() bool { return f.removed }

type perfSnapshot struct {
	instructions float64
	llcMisses    float64
}

// Completed returns the number of completed executions.
func (f *FGStream) Completed() int { return len(f.execs) }

// Durations returns all execution durations in seconds (a fresh slice).
func (f *FGStream) Durations() []float64 {
	out := make([]float64, len(f.execs))
	for i, e := range f.execs {
		out[i] = e.Duration.Seconds()
	}
	return out
}

// BGWorker is a background slot on one core: a plain benchmark or rotator.
type BGWorker struct {
	Spec BGSpec
	Task int
	Core int

	rotator *workload.Rotator
}

// Colocation is a full placement of FG streams and BG workers on a machine.
type Colocation struct {
	m   *machine.Machine
	fgs []*FGStream
	bgs []*BGWorker

	fgClass cache.ClassID
	bgClass cache.ClassID

	onComplete []func(stream int, e Execution)
	rng        *sim.Rand
}

// Options configures a Colocation.
type Options struct {
	// FGClass and BGClass are the LLC partition classes for FG and BG
	// tasks. Both may be 0 (the default shared class) for unpartitioned
	// configurations.
	FGClass, BGClass cache.ClassID
	// Seed drives rotate-BG selection.
	Seed uint64
}

// New places fg benchmarks on cores 0..len(fg)-1 and bg specs on the
// cores after them. The combined task count must not exceed the core count;
// unused cores idle (standalone-FG runs leave 5 cores idle, exactly like
// the paper's alone measurements).
func New(m *machine.Machine, fg []*workload.Benchmark, bg []BGSpec, opts Options) (*Colocation, error) {
	if m == nil {
		return nil, errors.New("sched: nil machine")
	}
	if len(fg) == 0 {
		return nil, errors.New("sched: at least one FG benchmark required")
	}
	if len(fg)+len(bg) > m.NumCores() {
		return nil, fmt.Errorf("sched: %d FG + %d BG tasks exceed %d cores", len(fg), len(bg), m.NumCores())
	}
	c := &Colocation{
		m:       m,
		fgClass: opts.FGClass,
		bgClass: opts.BGClass,
		rng:     sim.NewRand(opts.Seed ^ 0xd161e47), // "dirigent" mix constant
	}
	for i, b := range fg {
		if b.Kind != workload.Foreground {
			return nil, fmt.Errorf("sched: %s is not a foreground benchmark", b.Name)
		}
		prog, err := workload.NewProgram(b)
		if err != nil {
			return nil, err
		}
		id, err := m.Launch(b.Name, prog, i, opts.FGClass)
		if err != nil {
			return nil, err
		}
		c.fgs = append(c.fgs, &FGStream{Bench: b, Task: id, Core: i})
	}
	for j, spec := range bg {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		core := len(fg) + j
		w := &BGWorker{Spec: spec, Core: core}
		var prog *workload.Program
		if spec.IsRotate() {
			rot, err := workload.NewRotator(spec.Pair[0], spec.Pair[1], c.rng.Split())
			if err != nil {
				return nil, err
			}
			w.rotator = rot
			prog = rot.Program()
		} else {
			if spec.Bench.Kind != workload.Background {
				return nil, fmt.Errorf("sched: %s is not a background benchmark", spec.Bench.Name)
			}
			var err error
			prog, err = workload.NewProgram(spec.Bench)
			if err != nil {
				return nil, err
			}
			// Independently-arriving batch jobs are not phase-aligned:
			// start each plain BG worker at a random point in its phase
			// cycle. The varying degree of overlap between their
			// memory-heavy phases is the slowly-varying interference
			// component that drives Baseline execution-time variance.
			prog.SetOffset(c.rng.Float64() * spec.Bench.TotalInstructions())
		}
		id, err := m.Launch(spec.Name(), prog, core, opts.BGClass)
		if err != nil {
			return nil, err
		}
		w.Task = id
		c.bgs = append(c.bgs, w)
	}
	return c, nil
}

// Machine returns the underlying machine.
func (c *Colocation) Machine() *machine.Machine { return c.m }

// FG returns the foreground streams.
func (c *Colocation) FG() []*FGStream { return c.fgs }

// BG returns the background workers.
func (c *Colocation) BG() []*BGWorker { return c.bgs }

// FGClass returns the LLC partition class of the FG tasks.
func (c *Colocation) FGClass() cache.ClassID { return c.fgClass }

// BGClass returns the LLC partition class of the BG tasks.
func (c *Colocation) BGClass() cache.ClassID { return c.bgClass }

// freeCore returns the lowest-numbered core with no live colocation task.
func (c *Colocation) freeCore() (int, error) {
	used := make([]bool, c.m.NumCores())
	for _, f := range c.fgs {
		if !f.removed {
			used[f.Core] = true
		}
	}
	for _, w := range c.bgs {
		used[w.Core] = true
	}
	for core, u := range used {
		if !u {
			return core, nil
		}
	}
	return 0, fmt.Errorf("sched: no free core (all %d occupied)", c.m.NumCores())
}

// AdmitFG launches a new foreground stream on a free core mid-run and
// returns its stream index. The stream joins the colocation's FG partition
// class and starts its first execution at the current simulated time.
// Admission is an online-arrival event — it changes subsequent machine
// state, so admitted runs are only reproducible against the same admission
// schedule.
func (c *Colocation) AdmitFG(b *workload.Benchmark) (int, error) {
	if b == nil {
		return 0, errors.New("sched: nil FG benchmark")
	}
	if b.Kind != workload.Foreground {
		return 0, fmt.Errorf("sched: %s is not a foreground benchmark", b.Name)
	}
	core, err := c.freeCore()
	if err != nil {
		return 0, err
	}
	prog, err := workload.NewProgram(b)
	if err != nil {
		return 0, err
	}
	id, err := c.m.Launch(b.Name, prog, core, c.fgClass)
	if err != nil {
		return 0, err
	}
	sample := c.m.Counters().Task(id)
	c.fgs = append(c.fgs, &FGStream{
		Bench: b, Task: id, Core: core,
		lastStart: c.m.Now(),
		lastPerf:  perfSnapshot{instructions: sample.Instructions, llcMisses: sample.LLCMisses},
	})
	return len(c.fgs) - 1, nil
}

// RemoveFG evicts a foreground stream mid-run: its task is killed and the
// stream marked removed. Completed-execution history and counters survive
// for result collection; the freed core becomes available for admission.
func (c *Colocation) RemoveFG(stream int) error {
	if stream < 0 || stream >= len(c.fgs) {
		return fmt.Errorf("sched: FG stream %d out of range", stream)
	}
	f := c.fgs[stream]
	if f.removed {
		return fmt.Errorf("sched: FG stream %d already removed", stream)
	}
	active := 0
	for _, s := range c.fgs {
		if !s.removed {
			active++
		}
	}
	if active == 1 {
		return errors.New("sched: cannot remove the last FG stream")
	}
	if err := c.m.Kill(f.Task); err != nil {
		return err
	}
	f.removed = true
	return nil
}

// AdmitBG launches a new background worker on a free core mid-run and
// returns it. Plain workers start at a random phase offset, exactly like
// construction-time workers; rotate pairs get their own seeded rotator.
func (c *Colocation) AdmitBG(spec BGSpec) (*BGWorker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	core, err := c.freeCore()
	if err != nil {
		return nil, err
	}
	w := &BGWorker{Spec: spec, Core: core}
	var prog *workload.Program
	if spec.IsRotate() {
		rot, err := workload.NewRotator(spec.Pair[0], spec.Pair[1], c.rng.Split())
		if err != nil {
			return nil, err
		}
		w.rotator = rot
		prog = rot.Program()
	} else {
		if spec.Bench.Kind != workload.Background {
			return nil, fmt.Errorf("sched: %s is not a background benchmark", spec.Bench.Name)
		}
		prog, err = workload.NewProgram(spec.Bench)
		if err != nil {
			return nil, err
		}
		prog.SetOffset(c.rng.Float64() * spec.Bench.TotalInstructions())
	}
	id, err := c.m.Launch(spec.Name(), prog, core, c.bgClass)
	if err != nil {
		return nil, err
	}
	w.Task = id
	c.bgs = append(c.bgs, w)
	return w, nil
}

// RemoveBG kills the background worker running as the given task and drops
// it from the colocation. Its retired instructions leave the BG-throughput
// accounting with it.
func (c *Colocation) RemoveBG(task int) error {
	for j, w := range c.bgs {
		if w.Task != task {
			continue
		}
		if err := c.m.Kill(task); err != nil {
			return err
		}
		c.bgs = append(c.bgs[:j], c.bgs[j+1:]...)
		return nil
	}
	return fmt.Errorf("sched: no BG worker runs task %d", task)
}

// RuntimeCore returns the core the Dirigent runtime should be pinned to: a
// core running a BG task (§4.2 pins the runtime thread to a BG core). With
// no BG workers it falls back to the last core.
func (c *Colocation) RuntimeCore() int {
	if len(c.bgs) > 0 {
		return c.bgs[0].Core
	}
	return c.m.NumCores() - 1
}

// OnComplete registers a callback fired after each FG execution completes.
func (c *Colocation) OnComplete(fn func(stream int, e Execution)) {
	c.onComplete = append(c.onComplete, fn)
}

// BGInstructions returns total instructions retired by all BG tasks — the
// paper's BG throughput numerator.
func (c *Colocation) BGInstructions() float64 {
	sum := 0.0
	for _, w := range c.bgs {
		sum += c.m.Counters().Task(w.Task).Instructions
	}
	return sum
}

// StepN advances the machine by up to max quanta in one batch (stopping
// early at the first quantum with FG completions, so completion processing
// happens at the exact quantum a completion occurs) and returns how many
// quanta were advanced.
func (c *Colocation) StepN(max int) int {
	done, n := c.m.StepN(max)
	c.handleCompletions(done)
	return n
}

// Advance steps toward until in batches and returns once Now() reaches
// until (ceil-aligned, see machine.QuantaUntil) or right after a quantum in
// which an FG execution completed, whichever comes first — so a caller
// checking an execution goal between calls sees every count change at the
// quantum it happens. It reports whether it stopped at a completion.
func (c *Colocation) Advance(until sim.Time) (completed bool) {
	for c.m.Now() < until {
		done, _ := c.m.StepN(c.m.QuantaUntil(until))
		c.handleCompletions(done)
		if len(done) > 0 {
			return true
		}
	}
	return false
}

// Completed returns the minimum completed-execution count across active
// (non-removed) FG streams: the progress every execution goal is measured
// in.
func (c *Colocation) Completed() int {
	least := -1
	for _, f := range c.fgs {
		if !f.removed && (least < 0 || f.Completed() < least) {
			least = f.Completed()
		}
	}
	if least < 0 {
		return 0
	}
	return least
}

// handleCompletions processes one quantum's completions: execution stats,
// telemetry, callbacks, and BG rotation (FG completion is the rotate-BG
// context switch).
func (c *Colocation) handleCompletions(done []machine.Completion) {
	for _, comp := range done {
		for i, f := range c.fgs {
			if f.Task != comp.Task {
				continue
			}
			sample := c.m.Counters().Task(f.Task)
			e := Execution{
				End:          comp.At,
				Duration:     time.Duration(comp.At - f.lastStart),
				LLCMisses:    sample.LLCMisses - f.lastPerf.llcMisses,
				Instructions: sample.Instructions - f.lastPerf.instructions,
			}
			f.execs = append(f.execs, e)
			f.lastStart = comp.At
			f.lastPerf = perfSnapshot{instructions: sample.Instructions, llcMisses: sample.LLCMisses}
			// The scheduler emits through the machine's bus: execution
			// boundaries are placement-level events, visible to any sink
			// attached to the machine even without a Dirigent runtime.
			if rec := c.m.Recorder(); rec.Enabled(telemetry.KindExecutionComplete) {
				rec.Record(telemetry.Event{
					Kind: telemetry.KindExecutionComplete, At: comp.At,
					Stream: i, Task: f.Task, Duration: e.Duration,
					Instructions: e.Instructions, LLCMisses: e.LLCMisses,
				})
			}
			for _, fn := range c.onComplete {
				fn(i, e)
			}
			// A completed FG task models a collocated-job context switch:
			// rotate-BG workers pick their next benchmark.
			c.rotateAll()
		}
	}
}

// RunExecutions advances until every active FG stream has at least n
// completed executions or the simulated-time limit is reached; it returns an
// error on timeout (a task that cannot complete under the limit indicates a
// mis-configured experiment).
func (c *Colocation) RunExecutions(n int, limit sim.Time) error {
	for c.Completed() < n {
		if c.m.Now() >= limit {
			return fmt.Errorf("sched: only %d/%d executions within %v", c.Completed(), n, time.Duration(limit))
		}
		c.Advance(limit)
	}
	return nil
}

func (c *Colocation) rotateAll() {
	for _, w := range c.bgs {
		if w.rotator == nil {
			continue
		}
		w.rotator.Rotate()
		// Install the fresh program; errors are impossible here because the
		// task is known and the program non-nil, but check anyway.
		if err := c.m.SetProgram(w.Task, w.rotator.Program()); err != nil {
			panic(fmt.Sprintf("sched: rotate failed: %v", err))
		}
	}
}
