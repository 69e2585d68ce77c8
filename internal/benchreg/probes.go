package benchreg

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
	"dirigent/internal/scenario"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// Options sizes the suite. The defaults keep a full run in single-digit
// seconds so the gate is cheap enough for every push.
type Options struct {
	// PerfSamples is how many independent repetitions each wall-clock probe
	// gets; comparison uses the minimum (the noise floor).
	PerfSamples int
	// StepIters is the number of machine quanta timed per sample.
	StepIters int
	// EventIters is the number of telemetry events folded per sink sample.
	EventIters int
	// Executions is the post-warmup FG execution count of each QoS run.
	Executions int
	// PredictionExecutions is the per-mix execution count of the predictor
	// accuracy probes.
	PredictionExecutions int
	// ResilienceExecutions is the per-run FG execution count of the
	// fault-injection probes.
	ResilienceExecutions int
	// Quick trims the exact probes to one mix per family — for self-tests
	// and smoke runs, not for recorded baselines.
	Quick bool
	// StepHook is installed into every timed machine's configuration. The
	// self-test injects a busy-wait here to prove the perf gate catches a
	// machine.Step slowdown; it must stay nil otherwise.
	StepHook func()
}

// DefaultOptions sizes the suite for recorded baselines.
func DefaultOptions() Options {
	return Options{
		PerfSamples:          5,
		StepIters:            20000,
		EventIters:           200000,
		Executions:           12,
		PredictionExecutions: 16,
		ResilienceExecutions: 40,
	}
}

// QuickOptions sizes the suite for self-tests and smoke runs.
func QuickOptions() Options {
	return Options{
		PerfSamples:          3,
		StepIters:            4000,
		EventIters:           40000,
		Executions:           8,
		PredictionExecutions: 8,
		ResilienceExecutions: 24,
		Quick:                true,
	}
}

func (o Options) validate() error {
	if o.PerfSamples < 1 || o.StepIters < 1 || o.EventIters < 1 ||
		o.Executions < 4 || o.PredictionExecutions < 4 || o.ResilienceExecutions < 8 {
		return fmt.Errorf("benchreg: invalid options %+v", o)
	}
	return nil
}

// predictionMixes are the predictor-accuracy probe workloads: the paper's
// Fig. 6 mix plus one per remaining standalone BG benchmark, covering the
// bandwidth-heavy, cache-heavy, and mixed interference regimes.
func predictionMixes(quick bool) []experiment.Mix {
	mixes := []experiment.Mix{
		{Name: "raytrace rs", FG: []string{"raytrace"}, BG: fiveBG("rs")},
		{Name: "ferret bwaves", FG: []string{"ferret"}, BG: fiveBG("bwaves")},
		{Name: "streamcluster pca", FG: []string{"streamcluster"}, BG: fiveBG("pca")},
	}
	if quick {
		return mixes[:1]
	}
	return mixes
}

// qosMixes are the completion-rate probe workloads.
func qosMixes(quick bool) []experiment.Mix {
	mixes := []experiment.Mix{
		{Name: "ferret rs", FG: []string{"ferret"}, BG: fiveBG("rs")},
		{Name: "bodytrack pca", FG: []string{"bodytrack"}, BG: fiveBG("pca")},
	}
	if quick {
		return mixes[:1]
	}
	return mixes
}

func fiveBG(name string) []string {
	return []string{name, name, name, name, name}
}

// metricSlug turns a mix name into a metric-name component.
func metricSlug(mixName string) string {
	return strings.ReplaceAll(mixName, " ", "_")
}

// Run executes the full probe suite and returns an unstamped baseline
// (RecordedAt empty; the caller stamps it when recording).
func Run(o Options) (*Baseline, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	b := &Baseline{
		Schema: SchemaVersion,
		Tool:   "dirigent-ci",
		Env:    CurrentEnvironment(),
	}

	// --- Wall-clock probes (Kind Perf) -----------------------------------
	stepNop := make([]float64, 0, o.PerfSamples)
	stepRatio := make([]float64, 0, o.PerfSamples)
	aggNs := make([]float64, 0, o.PerfSamples)
	jsonlNs := make([]float64, 0, o.PerfSamples)
	for s := 0; s < o.PerfSamples; s++ {
		nop, err := stepSample(o, telemetry.Nop())
		if err != nil {
			return nil, err
		}
		traced, err := stepSample(o, telemetry.NewAggregator())
		if err != nil {
			return nil, err
		}
		stepNop = append(stepNop, nop)
		stepRatio = append(stepRatio, traced/nop)
		aggNs = append(aggNs, sinkSample(telemetry.NewAggregator(), o.EventIters))
		jsonlNs = append(jsonlNs, sinkSample(telemetry.NewJSONL(io.Discard).Include(telemetry.KindQuantumStep), o.EventIters))
	}
	b.Metrics = append(b.Metrics,
		newMetric("machine_step_wall_ns", "ns/op", StatMin, Perf, false, stepNop),
		newMetric("machine_step_telemetry_ratio", "ratio", StatMedian, Perf, false, stepRatio),
		newMetric("telemetry_aggregator_record_ns", "ns/event", StatMin, Perf, false, aggNs),
		newMetric("telemetry_jsonl_record_ns", "ns/event", StatMin, Perf, false, jsonlNs),
	)

	// --- Predictor accuracy (Kind Exact) ---------------------------------
	// A fresh runner per family keeps profile caches deterministic and
	// independent of probe ordering.
	pr := experiment.NewRunner()
	for _, mix := range predictionMixes(o.Quick) {
		res, err := pr.PredictionProbe(mix, o.PredictionExecutions, 3)
		if err != nil {
			return nil, fmt.Errorf("benchreg: prediction probe %s: %w", mix.Name, err)
		}
		slug := metricSlug(mix.Name)
		b.Metrics = append(b.Metrics,
			newMetric("predictor_mean_error_"+slug, "fraction", StatMedian, Exact, false, []float64{res.MeanError}),
		)
	}

	// --- Controller QoS (Kind Exact) -------------------------------------
	// Baseline + the two Dirigent configurations: completion rates of the
	// fine controller alone and of fine+coarse, the converged partition, and
	// the BG throughput retained — the paper's §5.4 quantities, derived from
	// each run's telemetry event stream by the experiment harness.
	qr := experiment.NewRunner()
	qr.Executions = o.Executions
	qr.Warmup = 2
	qr.ConvergenceWarmup = 10
	for _, mix := range qosMixes(o.Quick) {
		res, err := qr.RunConfigs(mix, config.Baseline, config.DirigentFreq, config.Dirigent)
		if err != nil {
			return nil, fmt.Errorf("benchreg: qos probe %s: %w", mix.Name, err)
		}
		slug := metricSlug(mix.Name)
		dir := res.ByConfig[config.Dirigent]
		b.Metrics = append(b.Metrics,
			newMetric("qos_baseline_success_"+slug, "fraction", StatMedian, Exact, true,
				[]float64{res.ByConfig[config.Baseline].MeanSuccessRate()}),
			newMetric("qos_dirigentfreq_success_"+slug, "fraction", StatMedian, Exact, true,
				[]float64{res.ByConfig[config.DirigentFreq].MeanSuccessRate()}),
			newMetric("qos_dirigent_success_"+slug, "fraction", StatMedian, Exact, true,
				[]float64{dir.MeanSuccessRate()}),
			newMetric("qos_dirigent_bg_throughput_"+slug, "ratio", StatMedian, Exact, true,
				[]float64{res.RelBGThroughput(config.Dirigent)}),
			newMetric("qos_dirigent_fg_ways_"+slug, "ways", StatMedian, Exact, false,
				[]float64{float64(dir.FGWays)}),
		)
	}

	// --- Rival policy QoS (Kind Exact) -----------------------------------
	// The competing controllers behind the policy engine (RT-Gang and the
	// CORD-style static decomposition), pinned on the detailed mix. They run
	// in their own runner so the dirigent metrics above stay byte-identical
	// to baselines recorded before the policy engine existed.
	sr := experiment.NewRunner()
	sr.Executions = o.Executions
	sr.Warmup = 2
	sr.ConvergenceWarmup = 10
	pmix := qosMixes(true)[0]
	sweep, err := sr.PolicySweep([]experiment.Mix{pmix},
		[]string{policy.NameRTGang, policy.NameCORDLike})
	if err != nil {
		return nil, fmt.Errorf("benchreg: policy probe %s: %w", pmix.Name, err)
	}
	pslug := metricSlug(pmix.Name)
	pmr := sweep.Mixes[0]
	b.Metrics = append(b.Metrics,
		newMetric("policy_rtgang_qos_"+pslug, "fraction", StatMedian, Exact, true,
			[]float64{pmr.ByPolicy[policy.NameRTGang].MeanSuccessRate()}),
		newMetric("policy_rtgang_bg_throughput_"+pslug, "ratio", StatMedian, Exact, true,
			[]float64{pmr.RelBGThroughput(policy.NameRTGang)}),
		newMetric("policy_cordlike_qos_"+pslug, "fraction", StatMedian, Exact, true,
			[]float64{pmr.ByPolicy[policy.NameCORDLike].MeanSuccessRate()}),
		newMetric("policy_cordlike_bg_throughput_"+pslug, "ratio", StatMedian, Exact, true,
			[]float64{pmr.RelBGThroughput(policy.NameCORDLike)}),
	)

	// --- Resilience (Kind Exact) -----------------------------------------
	// A shrunk fault-injection sweep (single moderate intensity) over the
	// detailed mix. The graceful-degradation contract is enforced here, not
	// just recorded: the worst per-class FG success at moderate intensity
	// must stay within 10 points of fault-free Dirigent, and re-profiling
	// must recover a stale profile to within 2 points of the fault-free
	// transient reference. The recorded values pin the exact
	// seed-deterministic outcomes on top of that.
	rr := experiment.NewRunner()
	rr.Executions = o.ResilienceExecutions
	rr.ConvergenceWarmup = 16
	rmix := qosMixes(true)[0]
	res, err := rr.ResilienceSweep(rmix, experiment.ResilienceOptions{Intensities: []float64{0.3}})
	if err != nil {
		return nil, fmt.Errorf("benchreg: resilience probe %s: %w", rmix.Name, err)
	}
	minSucc := res.MinSuccessAt(0.3)
	if res.CleanSuccess-minSucc > 0.10 {
		return nil, fmt.Errorf("benchreg: resilience probe %s: worst class success %.3f more than 10 points below fault-free %.3f",
			rmix.Name, minSucc, res.CleanSuccess)
	}
	if res.StaleCleanSuccess-res.RecoveredSuccess > 0.02 {
		return nil, fmt.Errorf("benchreg: resilience probe %s: re-profiled success %.3f more than 2 points below fault-free transient %.3f",
			rmix.Name, res.RecoveredSuccess, res.StaleCleanSuccess)
	}
	rslug := metricSlug(rmix.Name)
	b.Metrics = append(b.Metrics,
		newMetric("resilience_min_success_"+rslug, "fraction", StatMedian, Exact, true,
			[]float64{minSucc}),
		newMetric("resilience_reprofile_success_"+rslug, "fraction", StatMedian, Exact, true,
			[]float64{res.RecoveredSuccess}),
	)

	// --- Scenario suite (Kind Exact) ---------------------------------------
	// One pinned scenario per machine class, so a change to the class
	// configurations, the heterogeneous solver, or the scenario harness
	// shows up as metric drift even when no scenarios/*.json goal trips.
	for _, spec := range scenarioProbes(o.Quick) {
		sres, err := scenario.RunSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("benchreg: scenario probe %s: %w", spec.Name, err)
		}
		cslug := strings.ReplaceAll(spec.MachineClass, "-", "_")
		b.Metrics = append(b.Metrics,
			newMetric("scenario_qos_"+cslug, "fraction", StatMedian, Exact, true,
				[]float64{sres.QoSSuccess}),
			newMetric("scenario_bg_throughput_"+cslug, "ratio", StatMedian, Exact, true,
				[]float64{sres.BGThroughput}),
		)
	}

	// --- Load generator (Exact counts + Perf latency) ----------------------
	// Appended last, on an entirely fresh server/runner stack, so every
	// metric above stays byte-identical to baselines recorded before the
	// load probe existed.
	lm, err := loadProbe(o)
	if err != nil {
		return nil, err
	}
	b.Metrics = append(b.Metrics, lm...)
	return b, nil
}

// scenarioProbes pins one scenario per machine class. The goals are
// deliberately loose: the benchreg gate compares the exact recorded values,
// which is far stricter than any goal threshold.
func scenarioProbes(quick bool) []scenario.Spec {
	specs := []scenario.Spec{
		{
			Name:         "probe-xeon-e5",
			MachineClass: "xeon-e5",
			Mix:          scenario.MixSpec{FG: []string{"ferret"}, BG: []string{"rs", "lbm"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
			Goals:        scenario.GoalSpec{MinQoSSuccess: 0.01},
		},
		{
			Name:         "probe-quad-low",
			MachineClass: "quad-low",
			Mix:          scenario.MixSpec{FG: []string{"ferret"}, BG: []string{"lbm", "rs"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
			Goals:        scenario.GoalSpec{MinQoSSuccess: 0.01},
		},
		{
			Name:         "probe-biglittle",
			MachineClass: "biglittle",
			Mix:          scenario.MixSpec{FG: []string{"ferret", "raytrace"}, BG: []string{"lbm", "rs", "pca", "namd"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
			Goals:        scenario.GoalSpec{MinQoSSuccess: 0.01},
		},
		{
			Name:         "probe-dual-socket",
			MachineClass: "dual-socket",
			Mix:          scenario.MixSpec{FG: []string{"ferret", "bodytrack"}, BG: []string{"lbm", "soplex", "bwaves", "pca"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
			Goals:        scenario.GoalSpec{MinQoSSuccess: 0.01},
		},
	}
	if quick {
		return specs[:1]
	}
	return specs
}

// stepSample times o.StepIters machine quanta on the standard fully loaded
// colocation (one FG task, five BG tasks — the paper's collocation shape)
// with the given recorder attached, returning wall nanoseconds per quantum.
// The quanta run in StepN batches, as every stepping loop drives them.
func stepSample(o Options, rec telemetry.Recorder) (float64, error) {
	cfg := machine.DefaultConfig()
	cfg.StepHook = o.StepHook
	m, err := machine.New(cfg)
	if err != nil {
		return 0, err
	}
	m.SetRecorder(rec)
	fg := workload.FG()[0]
	if _, err := m.Launch(fg.Name, workload.MustProgram(fg), 0, 0); err != nil {
		return 0, err
	}
	bg := workload.SingleBG()[0]
	for c := 1; c < m.NumCores(); c++ {
		if _, err := m.Launch(bg.Name, workload.MustProgram(bg), c, 0); err != nil {
			return 0, err
		}
	}
	// Warm the solver state and caches before timing.
	warm := o.StepIters / 10
	if warm < 16 {
		warm = 16
	}
	stepQuanta(m, warm)
	start := time.Now()
	stepQuanta(m, o.StepIters)
	return float64(time.Since(start).Nanoseconds()) / float64(o.StepIters), nil
}

// stepQuanta advances m by exactly n quanta in StepN batches.
func stepQuanta(m *machine.Machine, n int) {
	for n > 0 {
		_, k := m.StepN(n)
		n -= k
	}
}

// sinkSample times folding a synthetic but representative event stream into
// a sink, returning wall nanoseconds per event.
func sinkSample(rec telemetry.Recorder, events int) float64 {
	stream := syntheticEvents()
	rec.Record(stream[0]) // machine start primes geometry-dependent sinks
	start := time.Now()
	for i := 0; i < events; i++ {
		rec.Record(stream[1+i%(len(stream)-1)])
	}
	return float64(time.Since(start).Nanoseconds()) / float64(events)
}

// syntheticEvents builds a fixed event mix that weights the hot kinds the
// way a real trace does: dominated by quantum steps, with periodic DVFS
// moves, controller decisions, and execution completions.
func syntheticEvents() []telemetry.Event {
	evs := []telemetry.Event{{
		Kind: telemetry.KindMachineStart, Cores: 6, Levels: 9, TopLevel: 8,
		Quantum: machine.DefaultConfig().Quantum,
	}}
	for i := 0; i < 16; i++ {
		evs = append(evs, telemetry.Event{
			Kind: telemetry.KindQuantumStep, At: sim.Time(i) * sim.DefaultQuantum,
			Utilization: 0.42, Instructions: 1.1e6, LLCMisses: 1.7e3,
		})
	}
	evs = append(evs,
		telemetry.Event{Kind: telemetry.KindDVFSTransition, Core: 3, FromLevel: 8, ToLevel: 5},
		telemetry.Event{Kind: telemetry.KindFineDecision, Reason: telemetry.ReasonFGBehind, Behind: 1, Streams: 1},
		telemetry.Event{Kind: telemetry.KindFineAction, Action: telemetry.ActionBGThrottle},
		telemetry.Event{Kind: telemetry.KindExecutionComplete, Stream: 0, Task: 1,
			Duration: 480 * time.Millisecond, Instructions: 2.4e9, LLCMisses: 3.1e6},
	)
	return evs
}
