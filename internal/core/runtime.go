package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dirigent/internal/fault"
	"dirigent/internal/policy"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// DefaultOverhead is the measured cost of one Dirigent invocation
// (predictor + throttler) on the paper's machine: under 100 µs (§4.2). The
// simulated runtime charges this to the BG core it is pinned to.
const DefaultOverhead = 100 * time.Microsecond

// reprofileAfter is the consecutive-drifting-execution count that triggers
// an in-place re-profile when RuntimeConfig.ReprofileAlphaDrift is set.
const reprofileAfter = 4

// RuntimeConfig configures a Dirigent runtime instance. The control loop's
// parameters are the paper's: ΔT is the profiles' SamplePeriod, the
// predictor's EMA weight is DefaultEMAWeight, a decision is made every
// policy.DefaultDecisionSegments samples, and each invocation costs
// DefaultOverhead.
type RuntimeConfig struct {
	// Targets are the relative latency targets per FG stream; must match
	// the colocation's FG count.
	Targets []time.Duration
	// Policy optionally supplies the QoS policy the runtime drives. Nil
	// builds the default Dirigent policy, with partitioning when
	// EnablePartitioning is set; the policy's capabilities are validated
	// against the colocation (LLC-partitioning policies need distinct FG/BG
	// classes).
	Policy policy.Policy
	// EnablePartitioning turns on the coarse time scale controller
	// (default Dirigent policy only; ignored when Policy is set). The
	// colocation must then use distinct FG and BG partition classes.
	EnablePartitioning bool
	// Recorder is the telemetry bus for the whole assembled system: the
	// runtime injects it into both controllers and the per-stream
	// predictors, and attaches it to the machine when the machine has no
	// recorder of its own. Nil disables telemetry. Recording is strictly
	// observational — results are byte-identical with or without it.
	Recorder telemetry.Recorder
	// Faults perturbs the runtime's own inputs: counter samples (dropout /
	// noise) and invocation ticks (dropped / late). Strictly opt-in; nil
	// leaves the control loop byte-identical. Share the same injector with
	// the machine so one seeded plan covers every hook.
	Faults *fault.Injector
	// ReprofileAlphaDrift enables chronic-profile-mismatch detection: when a
	// stream's per-execution rate-factor average drifts from 1 by more than
	// this for reprofileAfter (4) consecutive executions, the runtime pauses
	// BG and re-profiles the stream in place (ProfileOnline, §7). 0
	// disables.
	ReprofileAlphaDrift float64
}

// Runtime is the assembled Dirigent system running over a collocation: it
// samples FG progress every ΔT, predicts completion times, and drives the
// fine (DVFS/pause) and coarse (partition) controllers.
type Runtime struct {
	colo *sched.Colocation
	cfg  RuntimeConfig
	// overhead is charged to the runtime's core per invocation
	// (DefaultOverhead).
	overhead time.Duration

	preds   []*Predictor
	targets []time.Duration

	pol policy.Policy

	ticker        *sim.Ticker
	sampleCounter int

	// instrAtStart[i] is stream i's cumulative instruction counter at the
	// start of its in-flight execution.
	instrAtStart []float64

	// lastProgress[i] is the progress value last delivered to stream i's
	// predictor — the reference point for per-sample deltas under counter
	// fault injection (allocated only when an injector is configured).
	lastProgress []float64
	// pendingTick is the due time of a tick postponed by an injected
	// scheduling delay (0 = none).
	pendingTick sim.Time

	// Chronic-profile-mismatch state (allocated only when detection is on).
	driftStreak      []int
	needReprofile    []bool
	lastDrift        []float64
	anyNeedReprofile bool
	// reprofiling suppresses onComplete while ProfileOnline drives the
	// collocation (its completions belong to the profiler).
	reprofiling bool

	invocations int
}

// NewRuntime builds a Dirigent runtime over colo using one offline profile
// per FG stream (parallel slices). The runtime samples every ΔT of the
// profiles, which must share one SamplePeriod no finer than the machine
// quantum.
func NewRuntime(colo *sched.Colocation, profiles []*Profile, cfg RuntimeConfig) (*Runtime, error) {
	if colo == nil {
		return nil, errors.New("core: nil colocation")
	}
	fgs := colo.FG()
	if len(profiles) != len(fgs) {
		return nil, fmt.Errorf("core: %d profiles for %d FG streams", len(profiles), len(fgs))
	}
	if len(cfg.Targets) != len(fgs) {
		return nil, fmt.Errorf("core: %d targets for %d FG streams", len(cfg.Targets), len(fgs))
	}
	for i, tgt := range cfg.Targets {
		if tgt <= 0 {
			return nil, fmt.Errorf("core: target %d (%v) must be positive", i, tgt)
		}
	}
	for i, f := range fgs {
		if profiles[i] == nil {
			return nil, fmt.Errorf("core: nil profile for stream %d", i)
		}
		if profiles[i].Benchmark != f.Bench.Name {
			return nil, fmt.Errorf("core: profile %q does not match stream benchmark %q",
				profiles[i].Benchmark, f.Bench.Name)
		}
		if p := profiles[i].SamplePeriod; p != profiles[0].SamplePeriod {
			return nil, fmt.Errorf("core: stream %d profile sampled every %v, stream 0 every %v",
				i, p, profiles[0].SamplePeriod)
		}
	}
	m := colo.Machine()
	period := profiles[0].SamplePeriod
	if period < m.Config().Quantum {
		return nil, fmt.Errorf("core: sample period %v finer than machine quantum %v",
			period, m.Config().Quantum)
	}
	// One bus for every layer: machine (unless the caller attached its
	// own), the policy's controllers, and the predictors all emit through
	// cfg.Recorder. The policy's share of the bus is labelled with the
	// policy name so its decision/action events stay distinguishable when
	// several policies feed one stream.
	if cfg.Recorder != nil && telemetry.IsNop(m.Recorder()) {
		m.SetRecorder(cfg.Recorder)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.NewDirigent(policy.Options{Partitioning: cfg.EnablePartitioning})
	}
	caps := pol.Capabilities()
	if caps.LLCWays && colo.FGClass() == colo.BGClass() {
		return nil, fmt.Errorf("core: partitioning enabled but FG and BG share class %d", colo.FGClass())
	}

	r := &Runtime{
		colo:         colo,
		cfg:          cfg,
		overhead:     DefaultOverhead,
		targets:      append([]time.Duration(nil), cfg.Targets...),
		ticker:       sim.MustTicker(period),
		instrAtStart: make([]float64, len(fgs)),
	}
	if cfg.Faults != nil {
		r.lastProgress = make([]float64, len(fgs))
	}
	if cfg.ReprofileAlphaDrift > 0 {
		r.driftStreak = make([]int, len(fgs))
		r.needReprofile = make([]bool, len(fgs))
		r.lastDrift = make([]float64, len(fgs))
	}
	var fgTasks, fgCores, fgStreams []int
	var bgTasks, bgCores []int
	streamProfiles := make([]policy.StreamProfile, len(fgs))
	for i, f := range fgs {
		pred, err := NewPredictor(profiles[i], DefaultEMAWeight)
		if err != nil {
			return nil, err
		}
		pred.SetRecorder(cfg.Recorder, i)
		pred.BeginExecution(m.Now())
		r.preds = append(r.preds, pred)
		r.instrAtStart[i] = m.Counters().Task(f.Task).Instructions
		streamProfiles[i] = policy.StreamProfile{StandaloneDuration: profiles[i].TotalDuration()}
		fgTasks = append(fgTasks, f.Task)
		fgCores = append(fgCores, f.Core)
		fgStreams = append(fgStreams, i)
	}
	for _, w := range colo.BG() {
		bgTasks = append(bgTasks, w.Task)
		bgCores = append(bgCores, w.Core)
	}

	binding := policy.Binding{
		Machine:   m,
		FGTasks:   fgTasks,
		FGCores:   fgCores,
		FGStreams: fgStreams,
		BGTasks:   bgTasks,
		BGCores:   bgCores,
		Targets:   r.targets,
		Profiles:  streamProfiles,
		Recorder:  telemetry.WithPolicy(telemetry.OrNop(cfg.Recorder), pol.Name()),
	}
	if caps.LLCWays {
		binding.LLC = m.LLC()
		binding.FGClass = colo.FGClass()
		binding.BGClass = colo.BGClass()
	}
	if err := pol.Init(binding); err != nil {
		return nil, err
	}
	r.pol = pol

	r.ticker.Reset(m.Now())
	colo.OnComplete(r.onComplete)
	return r, nil
}

// Predictors returns the per-stream predictors (for evaluation probes).
func (r *Runtime) Predictors() []*Predictor { return r.preds }

// PolicyName returns the driving policy's registered name.
func (r *Runtime) PolicyName() string { return r.pol.Name() }

// Capabilities returns the driving policy's declared actuator set.
func (r *Runtime) Capabilities() policy.Capabilities { return r.pol.Capabilities() }

// Coarse returns the Dirigent policy's coarse controller, or nil when
// partitioning is off or a different policy drives the runtime.
func (r *Runtime) Coarse() *policy.CoarseController {
	if d, ok := r.pol.(*policy.Dirigent); ok {
		return d.Coarse()
	}
	return nil
}

// Targets returns the per-stream relative latency targets.
func (r *Runtime) Targets() []time.Duration {
	return append([]time.Duration(nil), r.targets...)
}

// SetTarget changes a stream's latency target (used by the tradeoff sweep,
// §5.5, and by served tenants retargeting deadlines mid-run).
func (r *Runtime) SetTarget(stream int, target time.Duration) error {
	if stream < 0 || stream >= len(r.targets) {
		return fmt.Errorf("core: stream %d out of range", stream)
	}
	if target <= 0 {
		return fmt.Errorf("core: target %v must be positive", target)
	}
	r.targets[stream] = target
	return nil
}

// AdmitStream admits a new FG stream mid-run: the benchmark is launched on
// a free core (sched.Colocation.AdmitFG), a predictor is built over the
// given offline profile, and the fine controller takes the new core under
// management. It returns the new stream's index. Admission changes
// subsequent machine state — results are reproducible only against the same
// admission schedule.
func (r *Runtime) AdmitStream(b *workload.Benchmark, profile *Profile, target time.Duration) (int, error) {
	if profile == nil {
		return 0, errors.New("core: nil profile")
	}
	if b == nil || profile.Benchmark != b.Name {
		return 0, fmt.Errorf("core: profile %q does not match admitted benchmark", profile.Benchmark)
	}
	if period := r.ticker.Period(); profile.SamplePeriod != period {
		return 0, fmt.Errorf("core: profile sampled every %v, the runtime every %v",
			profile.SamplePeriod, period)
	}
	if target <= 0 {
		return 0, fmt.Errorf("core: target %v must be positive", target)
	}
	pred, err := NewPredictor(profile, DefaultEMAWeight)
	if err != nil {
		return 0, err
	}
	stream, err := r.colo.AdmitFG(b)
	if err != nil {
		return 0, err
	}
	f := r.colo.FG()[stream]
	m := r.colo.Machine()
	if err := r.pol.AddFG(f.Task, f.Core, stream); err != nil {
		return 0, err
	}
	pred.SetRecorder(r.cfg.Recorder, stream)
	pred.BeginExecution(m.Now())
	r.preds = append(r.preds, pred)
	r.targets = append(r.targets, target)
	r.instrAtStart = append(r.instrAtStart, m.Counters().Task(f.Task).Instructions)
	if r.lastProgress != nil {
		r.lastProgress = append(r.lastProgress, 0)
	}
	if r.driftStreak != nil {
		r.driftStreak = append(r.driftStreak, 0)
		r.needReprofile = append(r.needReprofile, false)
		r.lastDrift = append(r.lastDrift, 0)
	}
	return stream, nil
}

// RemoveStream evicts an FG stream mid-run: the fine controller releases
// its core and the colocation kills its task. The stream index stays valid
// (marked removed) so prior telemetry and results keep their labels; the
// last active stream cannot be removed.
func (r *Runtime) RemoveStream(stream int) error {
	if stream < 0 || stream >= len(r.preds) {
		return fmt.Errorf("core: stream %d out of range", stream)
	}
	f := r.colo.FG()[stream]
	if f.Removed() {
		return fmt.Errorf("core: stream %d already removed", stream)
	}
	task := f.Task
	if err := r.colo.RemoveFG(stream); err != nil {
		return err
	}
	if err := r.pol.RemoveFG(task); err != nil {
		return err
	}
	if r.needReprofile != nil {
		r.needReprofile[stream] = false
	}
	return nil
}

// AdmitBG admits a new background worker mid-run and places it under fine
// control; it returns the worker's task ID (the handle RemoveBG takes).
func (r *Runtime) AdmitBG(spec sched.BGSpec) (int, error) {
	w, err := r.colo.AdmitBG(spec)
	if err != nil {
		return 0, err
	}
	if err := r.pol.AddBG(w.Task, w.Core); err != nil {
		return 0, err
	}
	return w.Task, nil
}

// RemoveBG evicts a background worker mid-run.
func (r *Runtime) RemoveBG(task int) error {
	if err := r.pol.RemoveBG(task); err != nil {
		return err
	}
	return r.colo.RemoveBG(task)
}

// Invocations returns how many runtime invocations (samples) have occurred.
func (r *Runtime) Invocations() int { return r.invocations }

// onComplete handles an FG execution boundary: closes out the predictor,
// records the execution for the coarse controller, and opens the next
// execution.
func (r *Runtime) onComplete(stream int, e sched.Execution) {
	if r.colo.FG()[stream].Removed() {
		return
	}
	if r.reprofiling {
		// ProfileOnline is driving the collocation; its executions are
		// profiling material, not managed completions.
		return
	}
	pred := r.preds[stream]
	finished := false
	if pred.Started() {
		// FinishExecution resolves remaining milestones; errors indicate a
		// logic bug (time/progress monotonicity is guaranteed here).
		if err := pred.FinishExecution(e.End); err != nil {
			panic(fmt.Sprintf("core: finish execution: %v", err))
		}
		finished = true
	}
	r.pol.OnExecution(stream, policy.ExecutionSample{
		End:       e.End,
		Duration:  e.Duration,
		LLCMisses: e.LLCMisses,
		Missed:    e.Duration > r.targets[stream],
	})
	// Chronic profile mismatch: a healthy profile keeps the per-execution
	// rate-factor average near 1 (contention shows up as transient spikes
	// the controller counters, not a sustained offset). A drift persisting
	// across executions means the profile itself is wrong — schedule an
	// in-place re-profile.
	if thr := r.cfg.ReprofileAlphaDrift; thr > 0 && finished {
		drift := math.Abs(pred.AlphaMA() - 1)
		if drift > thr {
			r.driftStreak[stream]++
			if r.driftStreak[stream] >= reprofileAfter && !r.needReprofile[stream] {
				r.driftStreak[stream] = 0
				r.needReprofile[stream] = true
				r.anyNeedReprofile = true
				r.lastDrift[stream] = drift
			}
		} else {
			r.driftStreak[stream] = 0
		}
	}
	pred.BeginExecution(e.End)
	f := r.colo.FG()[stream]
	r.instrAtStart[stream] = r.colo.Machine().Counters().Task(f.Task).Instructions
	if r.lastProgress != nil {
		r.lastProgress[stream] = 0
	}
}

// Advance steps the collocation toward until and runs the Dirigent
// sampling/control loop at every ΔT tick. It returns once Now() reaches
// until (ceil-aligned, see machine.QuantaUntil) or right after a quantum in
// which FG executions completed, whichever comes first, so a caller
// checking an execution goal between calls sees every count change at the
// quantum it happens.
//
// The machine runs in batches between interesting instants: the next
// sampler tick, a postponed tick's landing, an FG completion, and until.
// A tick can only be due at a batch's last quantum, so handling it after
// each batch is exactly the per-quantum control loop. A re-profile
// scheduled by a completion is serviced before any further quantum runs;
// profiling completes executions of its own, so like a completion it ends
// the call one quantum later.
func (r *Runtime) Advance(until sim.Time) error {
	m := r.colo.Machine()
	for m.Now() < until {
		next := until
		reprofiled := r.anyNeedReprofile
		if reprofiled {
			r.runReprofiles()
			next = m.Now() + 1
		}
		if due := r.ticker.NextDue(); due < next {
			next = due
		}
		if r.pendingTick != 0 && r.pendingTick < next {
			next = r.pendingTick
		}
		completed := r.colo.Advance(next)
		if err := r.tick(); err != nil {
			return err
		}
		if completed || reprofiled {
			return nil
		}
	}
	return nil
}

// tick runs the sampling/control loop if an invocation is due at Now().
func (r *Runtime) tick() error {
	m := r.colo.Machine()
	now := m.Now()
	fired := r.ticker.Fire(now)
	if fired {
		// A fired tick may be perturbed: dropped entirely (the runtime
		// process was descheduled past the whole ΔT) or postponed.
		r.pendingTick = 0
		if inj := r.cfg.Faults; inj != nil {
			drop, delay := inj.TickOutcome(now)
			if drop {
				return nil
			}
			if delay > 0 {
				r.pendingTick = now + sim.Time(delay)
				return nil
			}
		}
	} else if r.pendingTick != 0 && now >= r.pendingTick {
		// A postponed invocation lands now.
		r.pendingTick = 0
		fired = true
	}
	if !fired {
		return nil
	}
	r.invocations++

	// The runtime thread is pinned to a core shared with a BG task; each
	// invocation steals its overhead from that core (§4.2, §5.1).
	if err := m.ChargeOverhead(r.colo.RuntimeCore(), r.overhead); err != nil {
		return err
	}

	// Sample every FG stream's progress and update its predictor,
	// informing it of the core's current DVFS state so self-throttling is
	// not mistaken for interference.
	for i, f := range r.colo.FG() {
		if f.Removed() {
			continue
		}
		// The nominal clock is per-core: on heterogeneous classes a little
		// core's self-throttling is judged against its own top frequency,
		// not the big cores'.
		if f_cur, err := m.FreqGHz(f.Core); err == nil && f_cur > 0 {
			if nominal, err := m.CoreMaxFreqGHz(f.Core); err == nil {
				r.preds[i].SetFrequencyFactor(nominal / f_cur)
			}
		}
		progress := m.Counters().Task(f.Task).Instructions - r.instrAtStart[i]
		if inj := r.cfg.Faults; inj != nil {
			// Faults apply to the per-sample delta, the quantity a real
			// counter read delivers. A dropout skips the observation entirely
			// (the predictor bridges the gap at the next sample); noise
			// scales the delta, and the perturbed value becomes the next
			// sample's reference so errors do not compound systematically.
			delta := progress - r.lastProgress[i]
			pert, ok := inj.CounterRead(now, i, delta)
			if !ok {
				continue
			}
			progress = r.lastProgress[i] + pert
		}
		if r.lastProgress != nil {
			r.lastProgress[i] = progress
		}
		if err := r.preds[i].Observe(now, progress); err != nil {
			return fmt.Errorf("core: observe stream %d: %w", i, err)
		}
	}

	// Control decision every DefaultDecisionSegments samples.
	r.sampleCounter++
	if r.sampleCounter < policy.DefaultDecisionSegments {
		return nil
	}
	r.sampleCounter = 0

	// The status slice is compacted to active streams, in stream order —
	// the same order the fine controller's managed task list keeps across
	// admissions and removals.
	fgs := r.colo.FG()
	status := make([]policy.FGStatus, 0, len(r.preds))
	for i, pred := range r.preds {
		if fgs[i].Removed() {
			continue
		}
		predicted, err := pred.Predict(now)
		if err != nil {
			return fmt.Errorf("core: predict stream %d: %w", i, err)
		}
		status = append(status, policy.FGStatus{
			Predicted: predicted,
			Deadline:  pred.ExecStart() + sim.Time(r.targets[i]),
			Target:    r.targets[i],
		})
	}
	return r.pol.Tick(now, status)
}

// runReprofiles services pending re-profiling requests. Each one pauses BG
// and records a fresh profile in place (ProfileOnline); on success the
// stream's predictor is rebuilt over the new profile. Profiling failure is
// graceful: the stale profile is kept, the drift streak rebuilds, and a
// later request retries.
func (r *Runtime) runReprofiles() {
	r.anyNeedReprofile = false
	for i := range r.needReprofile {
		if r.needReprofile[i] {
			r.needReprofile[i] = false
			r.reprofileStream(i)
		}
	}
}

func (r *Runtime) reprofileStream(stream int) {
	m := r.colo.Machine()
	start := m.Now()
	r.reprofiling = true
	prof, err := ProfileOnline(r.colo, stream, OnlineProfileOptions{SamplePeriod: r.ticker.Period()})
	r.reprofiling = false
	now := m.Now()

	rec := telemetry.OrNop(r.cfg.Recorder)
	if rec.Enabled(telemetry.KindReprofile) {
		rec.Record(telemetry.Event{
			Kind: telemetry.KindReprofile, At: now,
			Stream: stream, Alpha: r.lastDrift[stream],
			Duration:   time.Duration(now - start),
			Suppressed: err != nil,
		})
	}

	if err == nil {
		if pred, perr := NewPredictor(prof, DefaultEMAWeight); perr == nil {
			pred.SetRecorder(r.cfg.Recorder, stream)
			r.preds[stream] = pred
		}
	}

	// Profiling advanced the clock with onComplete suppressed, so every
	// stream's in-flight bookkeeping is stale. Re-anchor all predictors at
	// the current instant: abandoning partially observed executions is a
	// bounded transient, while feeding multi-execution progress spans into
	// Observe would poison the penalty history.
	for j, f := range r.colo.FG() {
		if f.Removed() {
			continue
		}
		r.preds[j].BeginExecution(now)
		r.instrAtStart[j] = m.Counters().Task(f.Task).Instructions
		if r.lastProgress != nil {
			r.lastProgress[j] = 0
		}
	}
	r.ticker.Reset(now)
	r.sampleCounter = 0
	r.pendingTick = 0
}

// RunExecutions advances until every active FG stream has completed at
// least n executions, with a simulated-time limit.
func (r *Runtime) RunExecutions(n int, limit sim.Time) error {
	for r.colo.Completed() < n {
		if r.colo.Machine().Now() >= limit {
			return fmt.Errorf("core: only %d/%d executions within %v", r.colo.Completed(), n, time.Duration(limit))
		}
		if err := r.Advance(limit); err != nil {
			return err
		}
	}
	return nil
}
