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
	"dirigent/internal/telemetry"
)

// RunParams specifies one directly-parameterized run for StartSession: the
// caller supplies the configuration and (for runtime configurations) the
// per-stream latency targets instead of deriving them from a Baseline pass.
// This is the entry point long-running hosts (internal/server) use; the
// batch entry points (RunMix/RunConfigs) resolve the same parameters from
// the paper's methodology.
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
	// ExtraWarmup extends the discarded prefix (coarse-controller
	// convergence; the batch harness uses Runner.ConvergenceWarmup for the
	// full Dirigent configuration).
	ExtraWarmup int
	// FGWays statically partitions the LLC (0 = none/runtime-managed).
	FGWays int
	// BGLevel statically pins BG cores to a frequency level (-1 = max).
	BGLevel int
	// Seed overrides the mix-derived deterministic seed (0 keeps
	// Mix.Seed(), making a session byte-identical to the batch runner).
	Seed uint64
	// Faults is an optional deterministic fault-injection plan.
	Faults fault.Plan
	// Extra is an additional telemetry sink teed into the run's bus (live
	// subscribers); strictly observational.
	Extra telemetry.Recorder
}

// Session is one in-flight run that the caller steps explicitly instead of
// running to completion in one call. It is exactly the run the batch
// harness performs — RunMix/RunConfigs assemble the same session and drive
// it with RunExecutions — so a session stepped by an external worker (the
// dirigent-serve tenant loop) produces a byte-identical RunResult for the
// same seed and parameters.
//
// A session is not safe for concurrent use: one goroutine must own Advance,
// control operations (Runtime().SetTarget, admission hooks), and Collect.
type Session struct {
	runner *Runner
	mix    Mix
	spec   runSpec
	colo   *sched.Colocation
	rt     *core.Runtime
	agg    *telemetry.Aggregator
}

// StartSession validates params, assembles the machine/colocation/runtime
// stack for the mix, and returns the stepping handle. Nothing has executed
// yet.
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
	execs := p.Executions
	if execs <= 0 {
		execs = r.Executions
	}
	deadlines := p.Deadlines
	if len(deadlines) == 0 && cfg.UseRuntime {
		deadlines = make([]float64, len(p.Targets))
		for i, t := range p.Targets {
			deadlines[i] = t.Seconds()
		}
	}
	if len(deadlines) != 0 && len(deadlines) != len(mix.FG) {
		return nil, fmt.Errorf("experiment: %d deadlines for %d FG streams", len(deadlines), len(mix.FG))
	}
	bgLevel := p.BGLevel
	if cfg.StaticBGMinFreq {
		bgLevel = 0
	}
	spec := runSpec{
		cfg:         cfg,
		targets:     append([]time.Duration(nil), p.Targets...),
		deadlines:   deadlines,
		fgWays:      p.FGWays,
		bgLevel:     bgLevel,
		execs:       execs,
		extraWarmup: p.ExtraWarmup,
		seed:        p.Seed,
		faults:      p.Faults,
		extra:       p.Extra,
	}
	return r.startSession(mix, spec)
}

// startSession builds the full per-run stack for a resolved spec. This is
// the single construction path shared by the batch runner and served
// tenants; keep its operation order stable — seeded RNG draws happen during
// construction, so reordering would silently change every deterministic
// baseline.
func (r *Runner) startSession(mix Mix, spec runSpec) (*Session, error) {
	// Every run gets its own aggregator — RunResult is populated from the
	// same event stream an external sink would see. The user's sink (if
	// any) is teed in, labelled mix/config so parallel runs stay
	// attributable. Built before the machine because the fault injector
	// (wired into the machine config) emits through the same bus.
	seed := spec.seed
	if seed == 0 {
		seed = mix.Seed()
	}
	agg := telemetry.NewAggregator()
	rec := telemetry.Recorder(agg)
	if r.Recorder != nil || spec.extra != nil {
		var user telemetry.Recorder
		if r.Recorder != nil {
			user = telemetry.WithRun(r.Recorder, mix.Name+"/"+string(spec.cfg.Name))
		}
		rec = telemetry.Tee(agg, user, spec.extra)
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
	if !spec.faults.IsZero() {
		// One injector per run, seeded from the mix so fault schedules
		// reproduce bit-for-bit; the machine and the runtime share it.
		inj = fault.NewInjector(spec.faults, seed, rec)
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
	if spec.cfg.UseRuntime {
		pol, err = policy.New(spec.cfg.Policy, policy.Options{Partitioning: spec.cfg.RuntimePartitioning})
		if err != nil {
			return nil, err
		}
	}
	partitioned := spec.fgWays > 0 || (pol != nil && pol.Capabilities().LLCWays)
	var fgClass, bgClass cache.ClassID
	if partitioned {
		fgClass = m.LLC().DefineClass()
		bgClass = m.LLC().DefineClass()
		initial := spec.fgWays
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
	if spec.bgLevel >= 0 {
		for _, w := range colo.BG() {
			if err := m.SetFreqLevel(w.Core, spec.bgLevel); err != nil {
				return nil, err
			}
		}
	}

	var rt *core.Runtime
	if spec.cfg.UseRuntime {
		if len(spec.targets) != len(fgb) {
			return nil, fmt.Errorf("experiment: %d targets for %d FG streams", len(spec.targets), len(fgb))
		}
		profiles := make([]*core.Profile, len(fgb))
		for i, b := range fgb {
			p, err := r.Profile(b.Name)
			if err != nil {
				return nil, err
			}
			if s := spec.faults; (s.ProfileScale > 0 && s.ProfileScale != 1) || s.ProfileRephase > 0 {
				p = core.StaleProfile(p, s.ProfileScale, s.ProfileRephase)
			}
			profiles[i] = p
		}
		rt, err = core.NewRuntime(colo, profiles, core.RuntimeConfig{
			Targets:             spec.targets,
			Policy:              pol,
			EnablePartitioning:  spec.cfg.RuntimePartitioning,
			Recorder:            rec,
			Faults:              inj,
			ReprofileAlphaDrift: spec.reprofileDrift,
			ReprofileAfter:      spec.reprofileAfter,
		})
		if err != nil {
			return nil, err
		}
	}
	return &Session{runner: r, mix: mix, spec: spec, colo: colo, rt: rt, agg: agg}, nil
}

// Mix returns the session's workload mix.
func (s *Session) Mix() Mix { return s.mix }

// Config returns the configuration name the session runs under.
func (s *Session) Config() config.Name { return s.spec.cfg.Name }

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
func (s *Session) Goal() int { return s.spec.execs + s.spec.extraWarmup }

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
	return s.runner.collect(s.mix, s.spec, s.colo, s.rt, s.agg, s.Completed() < s.Goal())
}
