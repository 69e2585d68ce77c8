// Package fault is the deterministic fault-injection layer of the
// reproduction. Dirigent's controllers (§4.2–4.3) assume clean inputs —
// fresh profiles, lossless counter samples, instant DVFS and pause
// actuation — but the shared machines the paper targets are noisy and
// drifting. This package perturbs those inputs through explicit,
// seeded hooks so the robustness of the control loop can be measured
// (experiment.ResilienceSweep) and pinned (the resilience golden of
// internal/experiment):
//
//   - counter-sample dropout and multiplicative noise, applied to the
//     runtime's per-ΔT progress reads;
//   - missed and late runtime ticks (the 5 ms invocation is a real process
//     that can be descheduled);
//   - DVFS actuation latency and failed transitions (sysfs writes are
//     neither instant nor infallible);
//   - pause/resume (SIGSTOP/SIGCONT) actuation failures;
//   - profile staleness — scaling or re-phasing a profiling record before
//     it is handed to the runtime (core.StaleProfile applies the Plan's
//     ProfileScale/ProfileRephase).
//
// Everything is strictly opt-in and deterministic: a zero Plan injects
// nothing and draws nothing, so runs without faults are byte-identical to
// runs built before this package existed; each fault class draws from its
// own seeded stream (sim.Rand.Split), so enabling one class never shifts
// the outcomes of another.
package fault

import (
	"fmt"
	"math"
	"time"

	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// Class identifies a fault class. The wire names double as the Reason on
// KindFault telemetry events.
type Class uint8

const (
	// ClassCounterDropout: a runtime counter sample is lost entirely.
	ClassCounterDropout Class = iota
	// ClassCounterNoise: a counter sample's progress delta is scaled by
	// lognormal multiplicative noise.
	ClassCounterNoise
	// ClassTickDrop: a runtime invocation (ΔT tick) never happens.
	ClassTickDrop
	// ClassTickLate: a runtime invocation is postponed by TickLatency.
	ClassTickLate
	// ClassDVFSFail: a frequency transition request is dropped.
	ClassDVFSFail
	// ClassDVFSLate: a frequency transition lands after DVFSLatency.
	ClassDVFSLate
	// ClassPauseFail: a task pause request is dropped.
	ClassPauseFail
	// ClassResumeFail: a task resume request is dropped.
	ClassResumeFail

	numClasses
)

var classNames = [numClasses]string{
	ClassCounterDropout: "counter-dropout",
	ClassCounterNoise:   "counter-noise",
	ClassTickDrop:       "tick-drop",
	ClassTickLate:       "tick-late",
	ClassDVFSFail:       "dvfs-fail",
	ClassDVFSLate:       "dvfs-late",
	ClassPauseFail:      "pause-fail",
	ClassResumeFail:     "resume-fail",
}

// String returns the stable wire name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// Default latencies for the delayed-actuation classes when the plan enables
// them without choosing one. A late runtime tick is modelled as one ΔT of
// scheduling delay; a slow DVFS transition as the hundreds of microseconds
// a sysfs frequency write can take to settle.
const (
	DefaultTickLatency = 5 * time.Millisecond
	DefaultDVFSLatency = 500 * time.Microsecond
)

// Plan is a declarative fault schedule: per-class intensities, all
// probabilities per opportunity (per sample, per tick, per actuation). The
// zero value injects nothing.
type Plan struct {
	// CounterDropout is the probability a runtime counter sample is lost.
	CounterDropout float64
	// CounterNoise is the lognormal sigma of multiplicative noise applied
	// to each sample's progress delta.
	CounterNoise float64
	// TickDrop is the probability a runtime tick is missed entirely.
	TickDrop float64
	// TickLate is the probability a tick is postponed by TickLatency.
	TickLate float64
	// TickLatency is the postponement of late ticks (default 5 ms).
	TickLatency time.Duration
	// DVFSFail is the probability a frequency transition request fails.
	DVFSFail float64
	// DVFSLate is the probability a transition lands after DVFSLatency.
	DVFSLate float64
	// DVFSLatency is the delay of late transitions (default 500 µs).
	DVFSLatency time.Duration
	// PauseFail / ResumeFail are the probabilities that pause/resume
	// actuation requests are dropped.
	PauseFail  float64
	ResumeFail float64
	// ProfileScale multiplies every profiled segment duration before the
	// profile reaches the runtime (0 or 1 = identity; <1 models an
	// optimistic, stale record). Applied by core.StaleProfile, not by the
	// injector.
	ProfileScale float64
	// ProfileRephase rotates the profiled segment sequence by this fraction
	// of the execution (0 = identity), modelling phase misalignment.
	// Applied by core.StaleProfile.
	ProfileRephase float64
}

// Validate reports the first field outside its range: every probability
// must lie in [0, 1], and CounterNoise, both latencies, ProfileScale and
// ProfileRephase must be non-negative.
func (p Plan) Validate() error {
	inf := math.Inf(1)
	for _, f := range []struct {
		name   string
		v, max float64
	}{
		{"CounterDropout", p.CounterDropout, 1}, {"TickDrop", p.TickDrop, 1}, {"TickLate", p.TickLate, 1},
		{"DVFSFail", p.DVFSFail, 1}, {"DVFSLate", p.DVFSLate, 1}, {"PauseFail", p.PauseFail, 1}, {"ResumeFail", p.ResumeFail, 1},
		{"CounterNoise", p.CounterNoise, inf}, {"TickLatency", float64(p.TickLatency), inf},
		{"DVFSLatency", float64(p.DVFSLatency), inf}, {"ProfileScale", p.ProfileScale, inf}, {"ProfileRephase", p.ProfileRephase, inf},
	} {
		if !(f.v >= 0 && f.v <= f.max) {
			return fmt.Errorf("fault: %s %g is outside [0, %g]", f.name, f.v, f.max)
		}
	}
	return nil
}

// Active reports whether the plan can inject anything at run time (the
// profile-staleness fields are applied at setup time and do not count).
func (p Plan) Active() bool {
	return p.CounterDropout > 0 || p.CounterNoise > 0 ||
		p.TickDrop > 0 || p.TickLate > 0 ||
		p.DVFSFail > 0 || p.DVFSLate > 0 ||
		p.PauseFail > 0 || p.ResumeFail > 0
}

// IsZero reports whether the plan is the identity: nothing injected at run
// time and no profile staleness.
func (p Plan) IsZero() bool {
	return !p.Active() &&
		(p.ProfileScale == 0 || p.ProfileScale == 1) && p.ProfileRephase == 0
}

func (p Plan) withDefaults() Plan {
	if p.TickLate > 0 && p.TickLatency == 0 {
		p.TickLatency = DefaultTickLatency
	}
	if p.DVFSLate > 0 && p.DVFSLatency == 0 {
		p.DVFSLatency = DefaultDVFSLatency
	}
	return p
}

// Injector executes a Plan deterministically. Each fault class owns an
// independent seeded stream, and classes with zero intensity never draw, so
// intensities can be varied per class without perturbing the others. Every
// injected fault is emitted as a KindFault telemetry event (Reason = class
// name). Not safe for concurrent use — one injector per
// simulated run, shared between the machine and the runtime.
//
// All methods are nil-receiver safe and behave as "no fault", so call
// sites need no nil checks.
type Injector struct {
	plan Plan
	rec  telemetry.Recorder
	rng  [numClasses]*sim.Rand
}

// faultSeedSalt decorrelates the injector's streams from other users of the
// same experiment seed (the machine's jitter, the scheduler).
const faultSeedSalt = 0x6fa1bd5d3c2e9a71

// NewInjector builds an injector for plan, seeded so runs reproduce
// bit-for-bit. rec receives one KindFault event per injected fault (nil
// disables fault telemetry; injection itself is unaffected).
func NewInjector(plan Plan, seed uint64, rec telemetry.Recorder) *Injector {
	in := &Injector{plan: plan.withDefaults(), rec: telemetry.OrNop(rec)}
	root := sim.NewRand(seed ^ faultSeedSalt)
	for c := range in.rng {
		in.rng[c] = root.Split()
	}
	return in
}

func (in *Injector) emit(now sim.Time, c Class, task, core, stream int, delay time.Duration) {
	if in.rec.Enabled(telemetry.KindFault) {
		in.rec.Record(telemetry.Event{
			Kind: telemetry.KindFault, At: now,
			Reason: telemetry.Reason(c.String()),
			Task:   task, Core: core, Stream: stream,
			Duration: delay,
		})
	}
}

// CounterRead perturbs one runtime counter sample: delta is the true
// progress since the previous delivered sample. It returns the possibly
// noised delta and whether the sample was delivered at all (false =
// dropout; the caller skips the observation and the predictor bridges the
// gap by interpolation at the next sample).
func (in *Injector) CounterRead(now sim.Time, stream int, delta float64) (float64, bool) {
	if in == nil {
		return delta, true
	}
	if p := in.plan.CounterDropout; p > 0 && in.rng[ClassCounterDropout].Float64() < p {
		in.emit(now, ClassCounterDropout, -1, -1, stream, 0)
		return 0, false
	}
	if sigma := in.plan.CounterNoise; sigma > 0 {
		factor := in.rng[ClassCounterNoise].LogNormal(0, sigma)
		in.emit(now, ClassCounterNoise, -1, -1, stream, 0)
		if delta < 0 {
			delta = 0
		}
		return delta * factor, true
	}
	return delta, true
}

// TickOutcome decides the fate of one runtime tick: dropped entirely, or
// postponed by delay (0 = on time).
func (in *Injector) TickOutcome(now sim.Time) (dropped bool, delay time.Duration) {
	if in == nil {
		return false, 0
	}
	if p := in.plan.TickDrop; p > 0 && in.rng[ClassTickDrop].Float64() < p {
		in.emit(now, ClassTickDrop, -1, -1, -1, 0)
		return true, 0
	}
	if p := in.plan.TickLate; p > 0 && in.rng[ClassTickLate].Float64() < p {
		in.emit(now, ClassTickLate, -1, -1, -1, in.plan.TickLatency)
		return false, in.plan.TickLatency
	}
	return false, 0
}

// DVFSOutcome decides the fate of one frequency-transition request on a
// core: failed outright, or committed after delay (0 = immediate).
func (in *Injector) DVFSOutcome(now sim.Time, core int) (fail bool, delay time.Duration) {
	if in == nil {
		return false, 0
	}
	if p := in.plan.DVFSFail; p > 0 && in.rng[ClassDVFSFail].Float64() < p {
		in.emit(now, ClassDVFSFail, -1, core, -1, 0)
		return true, 0
	}
	if p := in.plan.DVFSLate; p > 0 && in.rng[ClassDVFSLate].Float64() < p {
		in.emit(now, ClassDVFSLate, -1, core, -1, in.plan.DVFSLatency)
		return false, in.plan.DVFSLatency
	}
	return false, 0
}

// PauseFails reports whether one pause request is dropped.
func (in *Injector) PauseFails(now sim.Time, task, core int) bool {
	if in == nil {
		return false
	}
	if p := in.plan.PauseFail; p > 0 && in.rng[ClassPauseFail].Float64() < p {
		in.emit(now, ClassPauseFail, task, core, -1, 0)
		return true
	}
	return false
}

// ResumeFails reports whether one resume request is dropped.
func (in *Injector) ResumeFails(now sim.Time, task, core int) bool {
	if in == nil {
		return false
	}
	if p := in.plan.ResumeFail; p > 0 && in.rng[ClassResumeFail].Float64() < p {
		in.emit(now, ClassResumeFail, task, core, -1, 0)
		return true
	}
	return false
}
