package workload

import (
	"errors"
	"fmt"

	"dirigent/internal/sim"
)

// Rotator implements the paper's rotate-BG workloads (§5.1): a pair of
// benchmarks that randomly switch each time a foreground task completes,
// mimicking the interference changes caused by context switches of
// collocated jobs.
type Rotator struct {
	a, b    *Benchmark
	current *Program
	rng     *sim.Rand
}

// NewRotator builds a rotator over two background benchmarks. The initial
// program runs benchmark a.
func NewRotator(a, b *Benchmark, rng *sim.Rand) (*Rotator, error) {
	if rng == nil {
		return nil, errors.New("workload: rotator requires a random source")
	}
	if a.Kind != Background || b.Kind != Background {
		return nil, fmt.Errorf("workload: rotator benchmarks must be background (%s is %s, %s is %s)",
			a.Name, a.Kind, b.Name, b.Kind)
	}
	prog, err := NewProgram(a)
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Rotator{
		a: a, b: b,
		current: prog,
		rng:     rng,
	}, nil
}

// Program returns the currently-installed program. The caller must re-fetch
// it after each Rotate.
func (r *Rotator) Program() *Program { return r.current }

// Rotate randomly selects one of the two paired benchmarks (each with
// probability 1/2, per the paper's "randomly switch between the two paired
// benchmarks each time a FG task completes") and installs a fresh program
// for it. It returns the newly selected benchmark.
func (r *Rotator) Rotate() *Benchmark {
	next := r.a
	if r.rng.Intn(2) == 1 {
		next = r.b
	}
	r.current = MustProgram(next)
	return next
}
