package core

import (
	"errors"
	"fmt"
	"time"

	"dirigent/internal/sim"
	"dirigent/internal/stats"
	"dirigent/internal/telemetry"
)

// DefaultEMAWeight is the paper's exponential-moving-average weight (0.2,
// §4.2); sensitivity is low in 0.1–0.3.
const DefaultEMAWeight = 0.2

// maxAlphaObservation caps per-segment rate factors entering the penalty
// history. Fault-free runs see α well below it (typically ≤ 3–4 under heavy
// contention), so the clamp only fires on degenerate observations.
const maxAlphaObservation = 50

// Predictor implements Dirigent's execution-time predictor (§4.2).
//
// The profile divides an execution into N segments, each with a profiled
// progress amount and duration ΔT_i. Online, the predictor observes
// (time, progress) samples and detects when the task crosses each profiled
// progress milestone (interpolating the crossing time within the sampling
// interval). The measured traversal time of segment i against ΔT_i gives
// the rate factor and penalty of Eq. 1:
//
//	α_i = measured_i / ΔT_i    P_i = (α_i − 1)·ΔT_i
//
// Penalties are smoothed across executions with an EMA (P̄_i = w·P_i +
// (1−w)·P̄_i), and the expected completion time at a point where k segments
// have completed follows Eq. 2:
//
//	T_est = T + Σ_{i=k+1..N} ( MA·P̄_i + ΔT_i )
//
// where MA is "the expected penalty scaling factor for the remainder of the
// current execution" (§4.2): the moving average of how this execution's
// observed per-segment penalties compare to their historical averages,
// MA({P_i/P̄_i}). In steady contention the factor is 1 and the historical
// penalties apply unchanged; when the current execution runs under heavier
// or lighter interference than history, the factor scales the remaining
// penalties accordingly.
//
// Two refinements: the in-flight segment contributes only its remaining
// progress fraction, so predictions are smooth between milestones (Eq. 2 is
// recovered exactly at milestone crossings); and for segments whose penalty
// EMA has never been observed (the first execution), the penalty falls back
// to the raw rate factor, (MA({α})−1)·ΔT_i.
type Predictor struct {
	profile   *Profile
	emaWeight float64

	// milestones[i] is cumulative profiled progress through segment i.
	milestones []float64
	// penalties[i] is P̄_i, persisted across executions.
	penalties []*stats.EMA

	// Per-execution state.
	execStart  sim.Time
	idx        int // segments fully traversed in this execution
	segStart   sim.Time
	prevTime   sim.Time
	prevProg   float64
	alphaMA    *stats.EMA // rate factors α_i of this execution
	scaleMA    *stats.EMA // penalty scaling factors P_i/P̄_i of this execution
	alphaCarry float64    // final MAs of the previous execution seed the next
	scaleCarry float64
	started    bool

	// freqFactor is nominalFrequency/currentFrequency of the FG core
	// (≥ 1 when the controller has throttled the task). Measured segment
	// durations are normalized by it before entering Eq. 1, and
	// predictions are scaled back by it, so that self-inflicted DVFS
	// slowdown is never mistaken for interference — without this, the
	// controller's own throttling inflates the penalty history and
	// triggers spurious boost/throttle oscillation.
	freqFactor float64

	// rec receives a KindSegmentPenalty event per milestone crossing;
	// never nil. stream labels the events (-1 when standalone).
	rec    telemetry.Recorder
	stream int
}

// NewPredictor builds a predictor over a validated profile. weight is the
// EMA weight; pass 0 for the paper's default 0.2.
func NewPredictor(profile *Profile, weight float64) (*Predictor, error) {
	if profile == nil {
		return nil, errors.New("core: nil profile")
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if weight == 0 {
		weight = DefaultEMAWeight
	}
	if weight < 0 || weight > 1 {
		return nil, fmt.Errorf("core: EMA weight %g outside (0,1]", weight)
	}
	p := &Predictor{
		profile:    profile,
		emaWeight:  weight,
		milestones: make([]float64, len(profile.Segments)),
		penalties:  make([]*stats.EMA, len(profile.Segments)),
		alphaCarry: 1,
		scaleCarry: 1,
		freqFactor: 1,
		rec:        telemetry.Nop(),
		stream:     -1,
	}
	cum := 0.0
	for i, s := range profile.Segments {
		cum += s.Progress
		p.milestones[i] = cum
		p.penalties[i] = stats.MustEMA(weight)
	}
	return p, nil
}

// Profile returns the underlying profile.
func (p *Predictor) Profile() *Profile { return p.profile }

// Segments returns the total segment count N.
func (p *Predictor) Segments() int { return len(p.profile.Segments) }

// SegmentIndex returns how many segments the current execution has fully
// traversed (the k of Eq. 2).
func (p *Predictor) SegmentIndex() int { return p.idx }

// BeginExecution resets per-execution state at the start of an execution.
// The α moving average is seeded with the previous execution's final value,
// which smooths predictions across executions (§4.2).
func (p *Predictor) BeginExecution(start sim.Time) {
	p.execStart = start
	p.idx = 0
	p.segStart = start
	p.prevTime = start
	p.prevProg = 0
	p.alphaMA = stats.MustEMA(p.emaWeight)
	p.alphaMA.Add(p.alphaCarry)
	p.scaleMA = stats.MustEMA(p.emaWeight)
	p.scaleMA.Add(p.scaleCarry)
	p.started = true
}

// Started reports whether BeginExecution has been called.
func (p *Predictor) Started() bool { return p.started }

// SetFrequencyFactor informs the predictor of the FG core's current DVFS
// state as nominal/current frequency (1 = nominal, >1 = throttled). The
// factor applies to observations from now on and to predictions. Invalid
// (non-positive) factors are ignored.
func (p *Predictor) SetFrequencyFactor(factor float64) {
	if factor > 0 {
		p.freqFactor = factor
	}
}

// FrequencyFactor returns the current compensation factor.
func (p *Predictor) FrequencyFactor() float64 { return p.freqFactor }

// SetRecorder attaches a telemetry recorder (nil clears it); stream labels
// the emitted segment events with the FG stream index.
func (p *Predictor) SetRecorder(rec telemetry.Recorder, stream int) {
	p.rec = telemetry.OrNop(rec)
	p.stream = stream
}

// Observe feeds a progress sample: progress is instructions retired since
// the start of the current execution, at simulated time now. Milestone
// crossings since the previous sample are resolved by linear interpolation.
func (p *Predictor) Observe(now sim.Time, progress float64) error {
	if !p.started {
		return errors.New("core: Observe before BeginExecution")
	}
	if now < p.prevTime {
		return fmt.Errorf("core: time went backwards: %v < %v", now, p.prevTime)
	}
	if progress < p.prevProg {
		// Counters on real hardware glitch: a noised or partially lost
		// sample can read below the previous one. Treat it as "no progress
		// this interval" rather than poisoning the milestone state — the
		// next clean sample re-synchronizes.
		progress = p.prevProg
	}
	for p.idx < len(p.milestones) && progress >= p.milestones[p.idx] {
		m := p.milestones[p.idx]
		// Interpolate the crossing time within (prevTime, now].
		cross := now
		if progress > p.prevProg {
			frac := (m - p.prevProg) / (progress - p.prevProg)
			cross = p.prevTime + sim.Time(float64(now-p.prevTime)*frac)
		}
		// Normalize out the task's own DVFS throttling: a segment traversed
		// at 1.6 GHz instead of the nominal 2.0 GHz is not suffering
		// interference, it is executing the controller's own decision.
		measured := time.Duration(float64(cross-p.segStart) / p.freqFactor)
		profiled := p.profile.Segments[p.idx].Duration
		alpha := float64(measured) / float64(profiled)
		penalty := float64(measured - profiled) // (α−1)·ΔT_i, Eq. 1
		if alpha > maxAlphaObservation {
			// A degenerate observation (sample gap spanning several
			// milestones, or a grossly stale profile) would otherwise inject
			// an absurd penalty into the EMA and take ~1/w executions to
			// wash out. Genuine contention keeps α in low single digits.
			alpha = maxAlphaObservation
			penalty = (maxAlphaObservation - 1) * float64(profiled)
		}
		// Penalty scaling factor: this execution's penalty relative to the
		// historical average for the segment, sampled only when history
		// carries a meaningful penalty (≥2% of the segment duration — the
		// ratio is numerically meaningless against a near-zero baseline).
		if hist := p.penalties[p.idx]; hist.Seeded() {
			if base := hist.Value(); base > 0.02*float64(profiled) {
				ratio := penalty / base
				if ratio < 0 {
					ratio = 0
				} else if ratio > 5 {
					ratio = 5
				}
				p.scaleMA.Add(ratio)
			}
		}
		p.penalties[p.idx].Add(penalty)
		p.alphaMA.Add(alpha)
		if p.rec.Enabled(telemetry.KindSegmentPenalty) {
			p.rec.Record(telemetry.Event{
				Kind: telemetry.KindSegmentPenalty, At: cross,
				Stream: p.stream, Segment: p.idx,
				Duration: measured, Penalty: time.Duration(penalty),
				Alpha: alpha,
			})
		}
		p.idx++
		p.segStart = cross
	}
	p.prevTime = now
	p.prevProg = progress
	return nil
}

// FinishExecution records the completion of the current execution at time
// end, resolving any milestones not yet crossed (the completion itself is
// the final milestone), and carries the α average into the next execution.
func (p *Predictor) FinishExecution(end sim.Time) error {
	if !p.started {
		return errors.New("core: FinishExecution before BeginExecution")
	}
	total := p.milestones[len(p.milestones)-1]
	if total < p.prevProg {
		// The task retired slightly more instructions than the profiled
		// total (profiling ran on a marginally different trajectory, and
		// counters include intra-quantum overshoot); the final milestone
		// was already crossed.
		total = p.prevProg
	}
	if err := p.Observe(end, total); err != nil {
		return err
	}
	p.alphaCarry = p.alphaMA.Value()
	p.scaleCarry = p.scaleMA.Value()
	p.started = false
	return nil
}

// Predict returns the estimated completion time of the current execution as
// of time now (Eq. 2 with the in-flight-segment refinement). It is valid at
// any point during an execution, including before the first milestone.
func (p *Predictor) Predict(now sim.Time) (sim.Time, error) {
	if !p.started {
		return 0, errors.New("core: Predict before BeginExecution")
	}
	scale := p.scaleMA.Value()
	alpha := p.alphaMA.Value()
	remaining := 0.0

	for i := p.idx; i < len(p.profile.Segments); i++ {
		seg := p.profile.Segments[i]
		var pen float64
		if p.penalties[i].Seeded() {
			pen = scale * p.penalties[i].Value()
		} else {
			// First execution: no penalty history; scale the profiled
			// duration by the observed rate factor.
			pen = (alpha - 1) * float64(seg.Duration)
		}
		segTime := float64(seg.Duration) + pen
		if segTime < 0 {
			// A negative penalty larger than the segment itself cannot
			// happen physically; clamp defensively.
			segTime = 0
		}
		if i == p.idx {
			// In-flight segment: only its remaining fraction.
			lo := 0.0
			if i > 0 {
				lo = p.milestones[i-1]
			}
			span := p.milestones[i] - lo
			fracDone := 0.0
			if span > 0 {
				fracDone = (p.prevProg - lo) / span
			}
			if fracDone < 0 {
				fracDone = 0
			} else if fracDone > 1 {
				fracDone = 1
			}
			segTime *= 1 - fracDone
			// Time already spent inside the segment is in `now`; the
			// remaining-fraction estimate replaces the rest.
		}
		remaining += segTime
	}
	// The remaining work executes at the core's current frequency.
	return now + sim.Time(remaining*p.freqFactor), nil
}

// PredictDuration returns the estimated total execution time (completion −
// execution start).
func (p *Predictor) PredictDuration(now sim.Time) (time.Duration, error) {
	t, err := p.Predict(now)
	if err != nil {
		return 0, err
	}
	return time.Duration(t - p.execStart), nil
}

// ExecStart returns the start time of the current execution.
func (p *Predictor) ExecStart() sim.Time { return p.execStart }

// AlphaMA returns the current within-execution rate-factor moving average.
func (p *Predictor) AlphaMA() float64 {
	if p.alphaMA == nil {
		return 1
	}
	return p.alphaMA.Value()
}

// PenaltySeeded reports whether segment i has penalty history (mainly for
// tests and introspection).
func (p *Predictor) PenaltySeeded(i int) bool {
	if i < 0 || i >= len(p.penalties) {
		return false
	}
	return p.penalties[i].Seeded()
}
