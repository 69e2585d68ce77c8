package experiment

import (
	"fmt"
	"strings"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/config"
	"dirigent/internal/core"
	"dirigent/internal/fault"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/stats"
	"dirigent/internal/telemetry"
)

// RunParams describes one run: the configuration, and for runtime
// configurations the per-stream latency targets. It is the only run
// description; StartSession resolves it, and every batch sweep, the
// scenario suite and the served tenants build one.
type RunParams struct {
	// Config names the system configuration to run under.
	Config config.Name
	// Policy names the QoS policy driving the runtime (internal/policy
	// registry name); empty keeps the configuration's policy, which is the
	// default Dirigent controllers for the stock configurations. Only
	// meaningful when the configuration uses the runtime.
	Policy string
	// Targets are per-FG-stream latency targets; required when the
	// configuration uses the Dirigent runtime.
	Targets []time.Duration
	// Deadlines are per-stream deadlines in seconds for success-rate
	// accounting; when empty for a runtime configuration they default to
	// Targets (in seconds).
	Deadlines []float64
	// Executions is the FG execution count driven per stream (0 uses the
	// runner's default).
	Executions int
	// ExtraWarmup extends the discarded prefix: Dirigent's coarse
	// controller needs ~30 executions to converge its partition (§5.3), so
	// those executions run in addition to Executions and are excluded from
	// statistics (the batch harness uses Runner.ConvergenceWarmup for the
	// runtime configurations). Must not be negative.
	ExtraWarmup int
	// FGWays statically partitions the LLC (0 = none/runtime-managed).
	FGWays int
	// BGLevel statically pins BG cores to a frequency level (-1 = max).
	BGLevel int
	// Seed overrides the mix-derived deterministic seed (0 keeps
	// Mix.Seed(), making a session byte-identical to the batch runner).
	Seed uint64
	// Faults is an optional deterministic fault-injection plan. Runtime
	// classes flow through a seeded injector shared by the machine and the
	// runtime; ProfileScale/ProfileRephase degrade the offline profiles
	// before the runtime sees them.
	Faults fault.Plan
	// Extra is an additional telemetry sink teed into the run's bus (live
	// subscribers); strictly observational.
	Extra telemetry.Recorder

	// reprofileDrift enables the runtime's chronic-mismatch detection
	// (core.RuntimeConfig.ReprofileAlphaDrift) when positive. Only the
	// resilience sweep sets it.
	reprofileDrift float64
}

// Session is one in-flight run that the caller steps explicitly instead of
// running to completion in one call. It is exactly the run the batch
// harness performs — Runner.Run assembles the same session and drives it
// with RunExecutions — so a session stepped by an external worker (the
// dirigent-serve tenant loop) produces a byte-identical RunResult for the
// same seed and parameters.
//
// A session is not safe for concurrent use: one goroutine must own Advance,
// control operations (Runtime().SetTarget, admission hooks), and Collect.
type Session struct {
	runner *Runner
	mix    Mix
	p      RunParams // resolved by StartSession
	cfg    config.Config
	colo   *sched.Colocation
	rt     *core.Runtime
	agg    *telemetry.Aggregator
}

// StartSession validates and resolves p, assembles the
// machine/colocation/runtime stack for the mix, and returns the stepping
// handle. Nothing has executed yet.
//
// Resolution: Executions ≤ 0 takes the runner's executions; a runtime
// configuration without deadlines takes them from its targets; StaticFreq
// pins BG to level 0. Construction order is stable — seeded RNG draws
// happen during construction, so reordering would silently change every
// deterministic baseline.
func (r *Runner) StartSession(mix Mix, p RunParams) (*Session, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	cfg, err := config.ByName(p.Config)
	if err != nil {
		return nil, err
	}
	if p.Policy != "" {
		if !policy.Valid(p.Policy) {
			return nil, fmt.Errorf("experiment: unknown policy %q (valid: %s)",
				p.Policy, strings.Join(policy.Names(), ", "))
		}
		cfg.Policy = p.Policy
	}
	if p.ExtraWarmup < 0 {
		return nil, fmt.Errorf("experiment: negative extra warmup %d", p.ExtraWarmup)
	}
	if p.Executions <= 0 {
		p.Executions = r.Executions
	}
	if len(p.Deadlines) == 0 && cfg.UseRuntime {
		p.Deadlines = make([]float64, len(p.Targets))
		for i, t := range p.Targets {
			p.Deadlines[i] = t.Seconds()
		}
	}
	if len(p.Deadlines) != 0 && len(p.Deadlines) != len(mix.FG) {
		return nil, fmt.Errorf("experiment: %d deadlines for %d FG streams", len(p.Deadlines), len(mix.FG))
	}
	if cfg.UseRuntime && len(p.Targets) != len(mix.FG) {
		return nil, fmt.Errorf("experiment: %d targets for %d FG streams", len(p.Targets), len(mix.FG))
	}
	if cfg.StaticBGMinFreq {
		p.BGLevel = 0
	}
	p.Targets = append([]time.Duration(nil), p.Targets...)

	// Every run gets its own aggregator — RunResult is populated from the
	// same event stream an external sink would see. The user's sink (if
	// any) is teed in, labelled mix/config so parallel runs stay
	// attributable. Built before the machine because the fault injector
	// (wired into the machine config) emits through the same bus.
	seed := p.Seed
	if seed == 0 {
		seed = mix.Seed()
	}
	agg := telemetry.NewAggregator()
	rec := telemetry.Recorder(agg)
	if r.Recorder != nil || p.Extra != nil {
		var user telemetry.Recorder
		if r.Recorder != nil {
			user = telemetry.WithRun(r.Recorder, mix.Name+"/"+string(cfg.Name))
		}
		rec = telemetry.Tee(agg, user, p.Extra)
	}

	// Resolve the runner's machine class ("" is the default xeon-e5, whose
	// config is exactly machine.DefaultConfig — byte-identical to the
	// pre-class construction path).
	mcfg, err := machine.ClassConfig(r.MachineClass)
	if err != nil {
		return nil, err
	}
	mcfg.Seed = seed
	var inj *fault.Injector
	if !p.Faults.IsZero() {
		// One injector per run, seeded from the mix so fault schedules
		// reproduce bit-for-bit; the machine and the runtime share it.
		inj = fault.NewInjector(p.Faults, seed, rec)
		mcfg.Faults = inj
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	m.SetRecorder(rec)

	opts := sched.Options{Seed: seed}
	// Resolve the driving policy up front: its declared capability set —
	// not a hard-wired config flag — decides whether the machine gets
	// partition classes. For the default Dirigent policy this resolves to
	// exactly the old RuntimePartitioning check, preserving seed-for-seed
	// machine construction order.
	var pol policy.Policy
	if cfg.UseRuntime {
		pol, err = policy.New(cfg.Policy, policy.Options{Partitioning: cfg.RuntimePartitioning})
		if err != nil {
			return nil, err
		}
	}
	partitioned := p.FGWays > 0 || (pol != nil && pol.Capabilities().LLCWays)
	var fgClass, bgClass cache.ClassID
	if partitioned {
		fgClass = m.LLC().DefineClass()
		bgClass = m.LLC().DefineClass()
		initial := p.FGWays
		if initial == 0 {
			initial = m.LLC().Ways() / 2
		}
		if err := m.LLC().SetPartition(map[cache.ClassID]int{
			0: 0, fgClass: initial, bgClass: m.LLC().Ways() - initial,
		}); err != nil {
			return nil, err
		}
		opts.FGClass, opts.BGClass = fgClass, bgClass
	}

	fgb, err := mix.FGBenchmarks()
	if err != nil {
		return nil, err
	}
	specs, err := mix.BGSpecs()
	if err != nil {
		return nil, err
	}
	colo, err := sched.New(m, fgb, specs, opts)
	if err != nil {
		return nil, err
	}

	// Static BG frequency pinning.
	if p.BGLevel >= 0 {
		for _, w := range colo.BG() {
			if err := m.SetFreqLevel(w.Core, p.BGLevel); err != nil {
				return nil, err
			}
		}
	}

	var rt *core.Runtime
	if cfg.UseRuntime {
		profiles := make([]*core.Profile, len(fgb))
		for i, b := range fgb {
			prof, err := r.Profile(b.Name)
			if err != nil {
				return nil, err
			}
			if f := p.Faults; (f.ProfileScale > 0 && f.ProfileScale != 1) || f.ProfileRephase > 0 {
				prof = core.StaleProfile(prof, f.ProfileScale, f.ProfileRephase)
			}
			profiles[i] = prof
		}
		rt, err = core.NewRuntime(colo, profiles, core.RuntimeConfig{
			Targets:             p.Targets,
			Policy:              pol,
			Recorder:            rec,
			Faults:              inj,
			ReprofileAlphaDrift: p.reprofileDrift,
		})
		if err != nil {
			return nil, err
		}
	}
	return &Session{runner: r, mix: mix, p: p, cfg: cfg, colo: colo, rt: rt, agg: agg}, nil
}

// Mix returns the session's workload mix.
func (s *Session) Mix() Mix { return s.mix }

// Config returns the configuration name the session runs under.
func (s *Session) Config() config.Name { return s.cfg.Name }

// Colocation returns the session's task placement (admission hooks live
// there for non-runtime configurations).
func (s *Session) Colocation() *sched.Colocation { return s.colo }

// Runtime returns the Dirigent runtime, or nil for configurations that do
// not use it (Baseline and the static schemes).
func (s *Session) Runtime() *core.Runtime { return s.rt }

// Policy returns the registered name of the QoS policy driving the
// session's runtime, or "" for non-runtime configurations.
func (s *Session) Policy() string {
	if s.rt == nil {
		return ""
	}
	return s.rt.PolicyName()
}

// Aggregator returns the session's telemetry aggregator — the same stream
// every derived statistic comes from. Read it only from the goroutine that
// steps the session.
func (s *Session) Aggregator() *telemetry.Aggregator { return s.agg }

// Goal returns the per-stream execution count the session was provisioned
// for, including the extra convergence warmup.
func (s *Session) Goal() int { return s.p.Executions + s.p.ExtraWarmup }

// Now returns the current simulated time.
func (s *Session) Now() sim.Time { return s.colo.Machine().Now() }

// Completed returns the minimum completed-execution count across active
// (non-removed) FG streams.
func (s *Session) Completed() int { return s.colo.Completed() }

// Advance runs the session toward simulated time until, with any due
// control work, and returns once Now() reaches until (ceil-aligned) or
// right after a quantum in which FG executions completed, whichever comes
// first (core.Runtime.Advance; sched.Colocation.Advance for configurations
// without the runtime).
func (s *Session) Advance(until sim.Time) error {
	if s.rt != nil {
		return s.rt.Advance(until)
	}
	s.colo.Advance(until)
	return nil
}

// RunExecutions runs until every active FG stream has completed at least n
// executions or the simulated-time limit is hit.
func (s *Session) RunExecutions(n int, limit sim.Time) error {
	if s.rt != nil {
		return s.rt.RunExecutions(n, limit)
	}
	return s.colo.RunExecutions(n, limit)
}

// Collect folds the session's event stream into a RunResult, exactly as the
// batch runner does at the end of a run. It may be called mid-run for a
// snapshot; per-stream statistics then cover completed executions only.
func (s *Session) Collect() (*RunResult, error) {
	// A mid-run snapshot (completed < goal) may have a live stream that has
	// not finished an execution past warmup yet, so only a finished run
	// must summarise every live stream.
	partial := s.Completed() < s.Goal()
	m := s.colo.Machine()
	rr := &RunResult{
		Mix:           s.mix,
		Config:        s.cfg.Name,
		Elapsed:       time.Duration(m.Now()),
		StaticBGLevel: s.p.BGLevel,
		FGWays:        s.p.FGWays,
	}
	if s.rt != nil {
		rr.Policy = s.rt.PolicyName()
		rr.Fine = s.agg.Fine()
		// Partition reporting keys off the policy's declared capability, not
		// the Dirigent-specific coarse controller: any LLC-way policy (e.g.
		// cordlike's static split) reports its partition the same way.
		if s.rt.Capabilities().LLCWays {
			rr.FGWays = s.agg.FGWays()
			rr.ConvergedAtExecution = s.agg.ConvergedAtExecution()
		}
	}
	rr.Faults = s.agg.Faults()
	rr.FaultsByClass = s.agg.FaultsByClass()
	rr.Reprofiles = s.agg.Reprofiles()
	warm := s.runner.Warmup + s.p.ExtraWarmup
	for i, f := range s.colo.FG() {
		// Durations come from the run's KindExecutionComplete events, not
		// the scheduler's private bookkeeping: the QoS statistics below are
		// derived from the same stream a JSONL trace (or the regression
		// gate) sees.
		durs := durationsSeconds(s.agg.StreamDurations(i))
		if len(durs) > warm {
			durs = durs[warm:]
		}
		// A stream removed mid-run (served tenants admit and evict streams
		// live), or any stream in a mid-run snapshot, may have nothing
		// after warmup; report an empty summary instead of failing the
		// whole collection.
		sum := stats.Summary{}
		if len(durs) > 0 || (!f.Removed() && !partial) {
			var err error
			sum, err = stats.Summarize(durs)
			if err != nil {
				return nil, err
			}
		}
		fgSample := m.Counters().Task(f.Task)
		rr.Streams = append(rr.Streams, StreamResult{
			Bench:     f.Bench.Name,
			Durations: durs,
			Summary:   sum,
			MPKI:      fgSample.MPKI(),
		})
		rr.FGLLCMisses += fgSample.LLCMisses
		rr.FGInstructions += fgSample.Instructions
	}
	rr.TotalLLCMisses = m.Counters().Total().LLCMisses
	if len(s.p.Deadlines) != 0 {
		applyDeadlines(rr, s.p.Deadlines)
	}
	if sec := time.Duration(m.Now()).Seconds(); sec > 0 {
		rr.BGInstrRate = s.colo.BGInstructions() / sec
	}
	// BG core frequency residency (Fig. 12), reconstructed from the event
	// stream: the aggregator replays quantum steps against DVFS transitions
	// and lands on exactly the machine's own accounting.
	levels := len(m.Config().FreqLevelsGHz)
	rr.BGFreqResidency = make([]time.Duration, levels)
	for _, w := range s.colo.BG() {
		res := s.agg.FreqResidency(w.Core)
		if res == nil {
			return nil, fmt.Errorf("experiment: no residency telemetry for core %d", w.Core)
		}
		for l, d := range res {
			rr.BGFreqResidency[l] += d
		}
	}
	return rr, nil
}
