// Package workload defines the synthetic benchmark models that stand in for
// the paper's PARSEC foreground tasks and SPEC2006/MLPack background tasks
// (Table 1).
//
// A benchmark is a sequence of *phases*; each phase is a block of
// instructions with its own compute intensity (base CPI), LLC access rate
// (accesses per kilo-instruction), working-set size, and locality. Phase
// structure is the property that matters to Dirigent: the paper selects BG
// benchmarks precisely because they exhibit strong phase changes (bwaves,
// PCA, RS) or are rotated to mimic context switches (lbm/libquantum ×
// namd/soplex), and the predictor must track progress through FG phases
// whose rates differ (§4.1: "progress can significantly differ between
// segments").
//
// The concrete parameter values are calibrated so the simulated machine
// reproduces the shapes of the paper's Fig. 4 (FG execution times 0.5–1.6 s
// standalone, MPKI rising under contention) and Fig. 5 (a wide spectrum of
// BG intrusiveness).
package workload

import (
	"errors"
	"fmt"
	"math"
)

// Kind distinguishes latency-critical foreground benchmarks from
// throughput-oriented background benchmarks.
type Kind int

const (
	// Foreground tasks are latency-critical: they run as a stream of
	// fixed-work executions, each with a deadline.
	Foreground Kind = iota
	// Background tasks are batch: they run forever, cycling their phases.
	Background
)

func (k Kind) String() string {
	switch k {
	case Foreground:
		return "FG"
	case Background:
		return "BG"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Phase is a block of instructions with homogeneous behaviour.
type Phase struct {
	// Name identifies the phase in traces.
	Name string
	// Instructions is the phase length in retired instructions.
	Instructions float64
	// BaseCPI is cycles per instruction when every LLC access hits.
	BaseCPI float64
	// APKI is LLC accesses per kilo-instruction.
	APKI float64
	// WSSBytes is the working-set size in bytes.
	WSSBytes float64
	// Locality is the hit rate the phase achieves with its full working set
	// resident (compulsory/streaming misses keep it below 1).
	Locality float64
	// MLP is the memory-level parallelism: how many misses the phase
	// overlaps on average. Effective stall per miss is latency/MLP.
	// Streaming phases (prefetch-friendly) have high MLP; pointer-chasing
	// phases have MLP near 1. Zero is treated as 1.
	MLP float64
}

// EffectiveMLP returns MLP with the zero value defaulted to 1.
func (p Phase) EffectiveMLP() float64 {
	if p.MLP < 1 {
		return 1
	}
	return p.MLP
}

// Validate checks phase parameters.
func (p Phase) Validate() error {
	if p.Instructions <= 0 {
		return fmt.Errorf("workload: phase %q instructions %g must be positive", p.Name, p.Instructions)
	}
	if p.BaseCPI <= 0 {
		return fmt.Errorf("workload: phase %q base CPI %g must be positive", p.Name, p.BaseCPI)
	}
	if p.APKI < 0 {
		return fmt.Errorf("workload: phase %q APKI %g must be non-negative", p.Name, p.APKI)
	}
	if p.WSSBytes < 0 {
		return fmt.Errorf("workload: phase %q working set %g must be non-negative", p.Name, p.WSSBytes)
	}
	if p.Locality < 0 || p.Locality > 1 {
		return fmt.Errorf("workload: phase %q locality %g outside [0,1]", p.Name, p.Locality)
	}
	if p.MLP < 0 {
		return fmt.Errorf("workload: phase %q MLP %g must be non-negative", p.Name, p.MLP)
	}
	return nil
}

// Benchmark is a named workload model.
type Benchmark struct {
	// Name matches the paper's benchmark name (Table 1).
	Name string
	// Kind is Foreground or Background.
	Kind Kind
	// Phases execute in order; Foreground benchmarks complete after the
	// last phase, Background benchmarks wrap around forever.
	Phases []Phase
	// CPIJitter is the sigma of the per-quantum lognormal CPI noise
	// multiplier, modelling OS noise, interrupts and micro-architectural
	// variation (§4.2 lists these as the sources the EMA smooths).
	CPIJitter float64
}

// Validate checks the benchmark definition.
func (b *Benchmark) Validate() error {
	if b.Name == "" {
		return errors.New("workload: benchmark must have a name")
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("workload: benchmark %q has no phases", b.Name)
	}
	for _, p := range b.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("benchmark %q: %w", b.Name, err)
		}
	}
	if b.CPIJitter < 0 {
		return fmt.Errorf("workload: benchmark %q jitter %g must be non-negative", b.Name, b.CPIJitter)
	}
	return nil
}

// TotalInstructions returns the instruction budget of one pass over the
// phases (one execution for Foreground benchmarks).
func (b *Benchmark) TotalInstructions() float64 {
	sum := 0.0
	for _, p := range b.Phases {
		sum += p.Instructions
	}
	return sum
}

// Program is a running instance of a benchmark: a position in its phase
// sequence. Not safe for concurrent use.
type Program struct {
	bench    *Benchmark
	executed float64 // instructions completed in the current pass
	total    float64

	// Cached phase lookup: phases[phase] covers executed positions in
	// [phaseStart, phaseEnd). The machine's solver asks for the current
	// phase several times per quantum while a phase spans thousands of
	// quanta, so Phase would otherwise rescan the cumulative sums on every
	// call. The guard range makes the cache self-invalidating under
	// Advance and SetOffset — any position outside it rescans.
	phase      int
	phaseStart float64
	phaseEnd   float64
}

// NewProgram validates the benchmark and returns a program positioned at
// its start.
func NewProgram(b *Benchmark) (*Program, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Program{bench: b, total: b.TotalInstructions()}, nil
}

// MustProgram is NewProgram that panics on an invalid benchmark.
func MustProgram(b *Benchmark) *Program {
	p, err := NewProgram(b)
	if err != nil {
		panic(err)
	}
	return p
}

// Benchmark returns the underlying benchmark definition.
func (p *Program) Benchmark() *Benchmark { return p.bench }

// Phase returns the phase the program is currently executing.
func (p *Program) Phase() *Phase {
	if p.executed >= p.phaseStart && p.executed < p.phaseEnd {
		return &p.bench.Phases[p.phase]
	}
	cum := 0.0
	for i := range p.bench.Phases {
		start := cum
		cum += p.bench.Phases[i].Instructions
		if p.executed < cum {
			p.phase, p.phaseStart, p.phaseEnd = i, start, cum
			return &p.bench.Phases[i]
		}
	}
	// At or past the end (only transiently visible for FG right at
	// completion): report the last phase, uncached so the position after the
	// wrap rescans.
	return &p.bench.Phases[len(p.bench.Phases)-1]
}

// Advance retires instr instructions. For Foreground benchmarks it returns
// true when the pass completes (the program then resets to the start,
// modelling the next task in the stream). Background benchmarks wrap
// silently and always return false.
func (p *Program) Advance(instr float64) bool {
	if instr < 0 {
		instr = 0
	}
	p.executed += instr
	if p.executed < p.total {
		return false
	}
	// Wrap. Quanta are far smaller than phases, so at most one wrap occurs.
	p.executed -= p.total
	return p.bench.Kind == Foreground
}

// SetOffset positions the program offset instructions into its pass,
// wrapping modulo the pass length. Background programs in a collocation
// start at random offsets: independently-arriving batch jobs are not
// phase-synchronized, and the degree of overlap between their memory-heavy
// phases is exactly the slowly-varying interference component the paper's
// predictor must track.
func (p *Program) SetOffset(offset float64) {
	if offset < 0 {
		offset = 0
	}
	p.executed = math.Mod(offset, p.total)
}
