// Package core implements Dirigent itself — the paper's contribution: an
// offline execution profiler (§4.1), an online execution-time predictor
// (§4.2, Eq. 1 and Eq. 2), a fine time scale controller driving per-core
// DVFS and task pausing, a coarse time scale controller driving LLC way
// partitioning (§4.3), and the runtime that assembles them.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"dirigent/internal/machine"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/workload"
)

// DefaultSamplePeriod is the paper's ΔT: 5 ms, chosen to balance overhead
// and prediction granularity (§4.2).
const DefaultSamplePeriod = 5 * time.Millisecond

// profileWarmup is how many executions the profilers discard before the
// recorded one, so the profile reflects steady-state cache contents (the
// paper profiles "a stable profiling record").
const profileWarmup = 1

// Segment is one profiled sampling interval: the progress (retired
// instructions) the FG task made in one ΔT while running alone.
type Segment struct {
	// Progress is instructions retired during the segment.
	Progress float64 `json:"progress"`
	// Duration is the measured segment length. Nominally ΔT; the final
	// segment of an execution is usually shorter. The paper notes ΔT_i "can
	// be slightly different than ΔT in the real implementation" and
	// accounts for it — so do we.
	Duration time.Duration `json:"duration"`
}

// Profile is the offline profiling record for one FG benchmark: a series of
// (time, progress) pairs at ΔT granularity (§4.1, Fig. 3a).
type Profile struct {
	// Benchmark names the profiled FG benchmark.
	Benchmark string `json:"benchmark"`
	// SamplePeriod is ΔT.
	SamplePeriod time.Duration `json:"sample_period"`
	// Segments holds per-segment progress, in execution order.
	Segments []Segment `json:"segments"`
}

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	if p.Benchmark == "" {
		return errors.New("core: profile has no benchmark name")
	}
	if p.SamplePeriod <= 0 {
		return fmt.Errorf("core: profile sample period %v must be positive", p.SamplePeriod)
	}
	if len(p.Segments) == 0 {
		return errors.New("core: profile has no segments")
	}
	for i, s := range p.Segments {
		if s.Progress <= 0 {
			return fmt.Errorf("core: segment %d progress %g must be positive", i, s.Progress)
		}
		if s.Duration <= 0 {
			return fmt.Errorf("core: segment %d duration %v must be positive", i, s.Duration)
		}
	}
	return nil
}

// TotalProgress returns the summed progress over all segments (≈ the
// benchmark's instruction budget).
func (p *Profile) TotalProgress() float64 {
	sum := 0.0
	for _, s := range p.Segments {
		sum += s.Progress
	}
	return sum
}

// TotalDuration returns the standalone execution time recorded in the
// profile.
func (p *Profile) TotalDuration() time.Duration {
	var sum time.Duration
	for _, s := range p.Segments {
		sum += s.Duration
	}
	return sum
}

// WriteTo serializes the profile as JSON.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// StaleProfile returns a copy of p degraded as a stale profiling record
// (the fault model's profile-staleness class; fault.Plan.ProfileScale /
// ProfileRephase name these knobs).
//
// scale multiplies every segment duration (progress untouched, so the
// milestones still match the task's real instruction budget): scale < 1
// models an optimistic record taken on a faster configuration or before the
// working set grew. rephase rotates the segment sequence by that fraction of
// the execution, modelling phase misalignment — the program's behavior
// changed shape since profiling, which the predictor's per-execution EMAs
// cannot average away. scale ≤ 0 or 1 and rephase ≤ 0 are identities.
func StaleProfile(p *Profile, scale, rephase float64) *Profile {
	out := &Profile{
		Benchmark:    p.Benchmark,
		SamplePeriod: p.SamplePeriod,
		Segments:     append([]Segment(nil), p.Segments...),
	}
	if scale > 0 && scale != 1 {
		for i := range out.Segments {
			out.Segments[i].Duration = time.Duration(float64(out.Segments[i].Duration) * scale)
			if out.Segments[i].Duration <= 0 {
				out.Segments[i].Duration = 1
			}
		}
	}
	if n := len(out.Segments); rephase > 0 && n > 1 {
		shift := int(rephase*float64(n)) % n
		if shift > 0 {
			rotated := make([]Segment, 0, n)
			rotated = append(rotated, out.Segments[shift:]...)
			rotated = append(rotated, out.Segments[:shift]...)
			out.Segments = rotated
		}
	}
	return out
}

// ProfilerOptions configures offline profiling.
type ProfilerOptions struct {
	// SamplePeriod is ΔT (default 5 ms).
	SamplePeriod time.Duration
	// MachineConfig is the platform to profile on; zero value means the
	// default machine.
	MachineConfig machine.Config
}

func (o ProfilerOptions) withDefaults() ProfilerOptions {
	if o.SamplePeriod == 0 {
		o.SamplePeriod = DefaultSamplePeriod
	}
	if o.MachineConfig.Cores == 0 {
		o.MachineConfig = machine.DefaultConfig()
	}
	return o
}

// ProfileBenchmark runs the FG benchmark alone on a fresh simulated machine
// and records its progress every ΔT (§4.1). This is the offline step of
// Dirigent; its output feeds the online predictor.
func ProfileBenchmark(b *workload.Benchmark, opts ProfilerOptions) (*Profile, error) {
	if b == nil {
		return nil, errors.New("core: nil benchmark")
	}
	if b.Kind != workload.Foreground {
		return nil, fmt.Errorf("core: %s is not a foreground benchmark", b.Name)
	}
	opts = opts.withDefaults()
	if opts.SamplePeriod < opts.MachineConfig.Quantum {
		return nil, fmt.Errorf("core: sample period %v finer than machine quantum %v",
			opts.SamplePeriod, opts.MachineConfig.Quantum)
	}

	m, err := machine.New(opts.MachineConfig)
	if err != nil {
		return nil, err
	}
	colo, err := sched.New(m, []*workload.Benchmark{b}, nil, sched.Options{})
	if err != nil {
		return nil, err
	}
	return recordProfile(colo, 0, opts.SamplePeriod, profileWarmup, 10*time.Minute)
}

// recordProfile lets a stream complete warm executions (discarded, so the
// profile reflects steady-state cache contents), then records the next
// execution: the stream's instruction counter sampled every period, closed
// by the (usually partial) segment that ends at its completion. The
// collocation runs in batches up to each sampler tick. Exceeding limit of
// simulated time fails with ErrProfileTimeout, checked at each batch start
// and with batches cut at the first quantum boundary past the deadline.
func recordProfile(colo *sched.Colocation, stream int, period time.Duration, warm int, limit time.Duration) (*Profile, error) {
	m := colo.Machine()
	f := colo.FG()[stream]
	deadline := m.Now() + sim.Time(limit)
	waitFor := f.Completed() + warm
	for f.Completed() < waitFor {
		if m.Now() > deadline {
			return nil, fmt.Errorf("core: profiling warmup did not complete within %v: %w", limit, ErrProfileTimeout)
		}
		colo.Advance(deadline + 1)
	}

	profile := &Profile{Benchmark: f.Bench.Name, SamplePeriod: period}
	ticker := sim.MustTicker(period)
	ticker.Reset(m.Now())
	segStartTime := m.Now()
	segStartInstr := m.Counters().Task(f.Task).Instructions
	done := f.Completed() + 1
	for f.Completed() < done {
		if m.Now() > deadline {
			return nil, fmt.Errorf("core: profiled execution did not complete within %v: %w", limit, ErrProfileTimeout)
		}
		colo.Advance(min(ticker.NextDue(), deadline+1))
		now := m.Now()
		instr := m.Counters().Task(f.Task).Instructions
		if f.Completed() >= done {
			// Final (usually partial) segment.
			if prog := instr - segStartInstr; prog > 0 {
				profile.Segments = append(profile.Segments, Segment{
					Progress: prog,
					Duration: time.Duration(now - segStartTime),
				})
			}
			break
		}
		if ticker.Fire(now) {
			profile.Segments = append(profile.Segments, Segment{
				Progress: instr - segStartInstr,
				Duration: time.Duration(now - segStartTime),
			})
			segStartTime = now
			segStartInstr = instr
		}
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	return profile, nil
}
