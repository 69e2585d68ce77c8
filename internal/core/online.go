package core

import (
	"errors"
	"fmt"
	"time"

	"dirigent/internal/sched"
)

// ErrProfileTimeout marks a profiling run that hit its simulated time
// limit. Callers distinguish it from validation or machine errors with
// errors.Is; on timeout no partial profile is returned.
var ErrProfileTimeout = errors.New("profiling time limit exceeded")

// OnlineProfileOptions configures in-place profiling.
type OnlineProfileOptions struct {
	// SamplePeriod is ΔT (default 5 ms).
	SamplePeriod time.Duration
	// Limit bounds the profiling in simulated time (default 10 minutes).
	Limit time.Duration
}

// ProfileOnline implements the paper's §7 extension: instead of profiling
// the FG benchmark offline on a dedicated machine, profile it in place by
// pausing every background task in the collocation, recording one (or more)
// isolated executions of the chosen FG stream, and resuming the background
// tasks afterwards. "Because of the short profiling duration it can be
// performed online, though it will require pausing all BG tasks while
// profiling."
//
// The collocation must not already be driven by a Dirigent runtime during
// profiling (the profiler needs the FG stream's completions for itself);
// build the runtime with the returned profile afterwards.
func ProfileOnline(colo *sched.Colocation, stream int, opts OnlineProfileOptions) (*Profile, error) {
	if colo == nil {
		return nil, errors.New("core: nil colocation")
	}
	fgs := colo.FG()
	if stream < 0 || stream >= len(fgs) {
		return nil, fmt.Errorf("core: stream %d out of range [0,%d)", stream, len(fgs))
	}
	if opts.SamplePeriod == 0 {
		opts.SamplePeriod = DefaultSamplePeriod
	}
	if opts.Limit == 0 {
		opts.Limit = 10 * time.Minute
	}
	m := colo.Machine()
	if opts.SamplePeriod < m.Config().Quantum {
		return nil, fmt.Errorf("core: sample period %v finer than machine quantum %v",
			opts.SamplePeriod, m.Config().Quantum)
	}

	// Pause every BG task (and remember which were already paused so their
	// state is restored exactly).
	var pausedByUs []int
	for _, w := range colo.BG() {
		p, err := m.Paused(w.Task)
		if err != nil {
			return nil, err
		}
		if p {
			continue
		}
		if err := m.Pause(w.Task); err != nil {
			return nil, err
		}
		pausedByUs = append(pausedByUs, w.Task)
	}
	defer func() {
		for _, t := range pausedByUs {
			// Under fault injection a resume request can be dropped; retry a
			// few times so profiling restores the collocation whenever the
			// fault is transient. A task still stuck paused afterwards is
			// resumed by the fine controller's next release decision.
			for attempt := 0; attempt < 4; attempt++ {
				if m.Resume(t) == nil {
					break
				}
			}
		}
	}()

	// Let the in-flight execution and the warmup executions (still with BG
	// paused, so the profile reflects the FG task's steady-state cache
	// contents) drain, then record the next one.
	return recordProfile(colo, stream, opts.SamplePeriod, 1+profileWarmup, opts.Limit)
}
