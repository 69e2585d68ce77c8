// Package perf is the simulated machine's performance-counter file. It
// mirrors the counters Dirigent reads on real hardware through rdpmc
// (§4.1): retired instructions, cycles, LLC accesses, and LLC load misses,
// tracked per task and per core.
//
// Consumers (the Dirigent profiler, predictor, and coarse controller) read
// the counters exactly like software reads MSRs: take a snapshot, do work,
// take another snapshot, and subtract.
package perf

import "fmt"

// Sample is one counter vector. All values are cumulative since the task or
// core started, matching free-running hardware counters.
type Sample struct {
	Instructions float64
	Cycles       float64
	LLCAccesses  float64
	LLCMisses    float64
}

// Add returns s + other.
func (s Sample) Add(other Sample) Sample {
	return Sample{
		Instructions: s.Instructions + other.Instructions,
		Cycles:       s.Cycles + other.Cycles,
		LLCAccesses:  s.LLCAccesses + other.LLCAccesses,
		LLCMisses:    s.LLCMisses + other.LLCMisses,
	}
}

// MPKI returns LLC misses per kilo-instruction, the paper's interference
// metric (Fig. 4, Fig. 5). Zero instructions yields zero.
func (s Sample) MPKI() float64 {
	if s.Instructions <= 0 {
		return 0
	}
	return s.LLCMisses / s.Instructions * 1000
}

func (s Sample) String() string {
	return fmt.Sprintf("instr=%.3g cycles=%.3g llcAcc=%.3g llcMiss=%.3g mpki=%.3g",
		s.Instructions, s.Cycles, s.LLCAccesses, s.LLCMisses, s.MPKI())
}

// Counters is the counter file for one machine: a Sample per task and per
// core. Not safe for concurrent use.
type Counters struct {
	tasks map[int]*Sample
	cores []Sample
}

// New creates a counter file for a machine with the given number of cores.
func New(cores int) (*Counters, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("perf: core count %d must be positive", cores)
	}
	return &Counters{
		tasks: map[int]*Sample{},
		cores: make([]Sample, cores),
	}, nil
}

// MustNew is New that panics on invalid input.
func MustNew(cores int) *Counters {
	c, err := New(cores)
	if err != nil {
		panic(err)
	}
	return c
}

// Handle returns a stable pointer to a task's cumulative Sample, creating
// the task on first use. The machine resolves it once per task and charges
// through it, skipping a per-quantum map lookup.
func (c *Counters) Handle(task int) *Sample {
	t, ok := c.tasks[task]
	if !ok {
		t = &Sample{}
		c.tasks[task] = t
	}
	return t
}

// ChargeRef accumulates a delta for the task behind a resolved Handle,
// running on core. It does no core-range check: the machine charges cores
// it validated at construction.
func (c *Counters) ChargeRef(t *Sample, core int, delta Sample) {
	*t = t.Add(delta)
	c.cores[core] = c.cores[core].Add(delta)
}

// Task returns the cumulative counters of a task (zero Sample if the task
// never ran).
func (c *Counters) Task(task int) Sample {
	if t, ok := c.tasks[task]; ok {
		return *t
	}
	return Sample{}
}

// Core returns the cumulative counters of a core.
func (c *Counters) Core(core int) (Sample, error) {
	if core < 0 || core >= len(c.cores) {
		return Sample{}, fmt.Errorf("perf: core %d out of range [0,%d)", core, len(c.cores))
	}
	return c.cores[core], nil
}

// Total returns the machine-wide cumulative counters.
func (c *Counters) Total() Sample {
	var sum Sample
	for _, s := range c.cores {
		sum = sum.Add(s)
	}
	return sum
}
