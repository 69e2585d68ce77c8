package benchreg

import (
	"fmt"
	"strings"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/policy"
	"dirigent/internal/scenario"
)

// Options sizes the suite. The defaults keep a full run in single-digit
// seconds so the gate is cheap enough for every push.
type Options struct {
	// Executions is the post-warmup FG execution count of each QoS run.
	Executions int
	// PredictionExecutions is the per-mix execution count of the predictor
	// accuracy probes.
	PredictionExecutions int
	// ResilienceExecutions is the per-run FG execution count of the
	// fault-injection probes.
	ResilienceExecutions int
	// Quick trims the probes to one mix per family — for the package's own
	// tests, not for recorded baselines.
	Quick bool
}

// DefaultOptions sizes the suite for recorded baselines.
func DefaultOptions() Options {
	return Options{
		Executions:           12,
		PredictionExecutions: 16,
		ResilienceExecutions: 40,
	}
}

// QuickOptions sizes the suite for the package's own tests.
func QuickOptions() Options {
	return Options{
		Executions:           8,
		PredictionExecutions: 8,
		ResilienceExecutions: 24,
		Quick:                true,
	}
}

func (o Options) validate() error {
	if o.Executions < 4 || o.PredictionExecutions < 4 || o.ResilienceExecutions < 8 {
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

	// --- Predictor accuracy ------------------------------------------------
	// A fresh runner per family keeps profile caches deterministic and
	// independent of probe ordering.
	pr := experiment.NewRunner()
	for _, mix := range predictionMixes(o.Quick) {
		res, err := pr.PredictionProbe(mix, o.PredictionExecutions, 3)
		if err != nil {
			return nil, fmt.Errorf("benchreg: prediction probe %s: %w", mix.Name, err)
		}
		slug := metricSlug(mix.Name)
		b.Metrics = append(b.Metrics, exact("predictor_mean_error_"+slug, "fraction", false, res.MeanError))
	}

	// --- Controller QoS ----------------------------------------------------
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
			exact("qos_baseline_success_"+slug, "fraction", true, res.ByConfig[config.Baseline].MeanSuccessRate()),
			exact("qos_dirigentfreq_success_"+slug, "fraction", true, res.ByConfig[config.DirigentFreq].MeanSuccessRate()),
			exact("qos_dirigent_success_"+slug, "fraction", true, dir.MeanSuccessRate()),
			exact("qos_dirigent_bg_throughput_"+slug, "ratio", true, res.RelBGThroughput(config.Dirigent)),
			exact("qos_dirigent_fg_ways_"+slug, "ways", false, float64(dir.FGWays)),
		)
	}

	// --- Rival policy QoS --------------------------------------------------
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
		exact("policy_rtgang_qos_"+pslug, "fraction", true, pmr.ByPolicy[policy.NameRTGang].MeanSuccessRate()),
		exact("policy_rtgang_bg_throughput_"+pslug, "ratio", true, pmr.RelBGThroughput(policy.NameRTGang)),
		exact("policy_cordlike_qos_"+pslug, "fraction", true, pmr.ByPolicy[policy.NameCORDLike].MeanSuccessRate()),
		exact("policy_cordlike_bg_throughput_"+pslug, "ratio", true, pmr.RelBGThroughput(policy.NameCORDLike)),
	)

	// --- Resilience --------------------------------------------------------
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
		exact("resilience_min_success_"+rslug, "fraction", true, minSucc),
		exact("resilience_reprofile_success_"+rslug, "fraction", true, res.RecoveredSuccess),
	)

	// --- Scenario suite ----------------------------------------------------
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
			exact("scenario_qos_"+cslug, "fraction", true, sres.QoSSuccess),
			exact("scenario_bg_throughput_"+cslug, "ratio", true, sres.BGThroughput),
		)
	}

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
