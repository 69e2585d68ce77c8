// Package benchreg is the QoS probe suite: a curated set of fast,
// seed-deterministic simulation probes whose 27 values are pinned bit for
// bit by the golden testdata/probes.json (TestProbeSuiteGolden).
//
// Every metric is an output of the deterministic simulator under fixed
// seeds: predictor accuracy, the paper's §5.4 quantities (FG success of
// the fine controller alone and of fine+coarse, retained BG throughput,
// the converged LLC partition), the QoS of the RT-Gang and CORD-style
// rivals, fault-injection resilience, and one pinned scenario per machine
// class. Same seeds must reproduce them bit for bit, so any drift means
// the controllers' behaviour changed, and the golden fails until the
// change is acknowledged by re-recording it.
//
// The package reads no wall clock. Timing belongs to perfbench (see
// BENCHMARK.json), which corrects for host drift and measures each layer.
package benchreg

import (
	"fmt"
	"strings"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/policy"
	"dirigent/internal/scenario"
)

// The suite's sizes: post-warmup FG executions of each QoS run, per-mix
// executions of the predictor-accuracy probes, and per-run FG executions
// of the fault-injection probes.
const (
	qosExecutions        = 12
	predictionExecutions = 16
	resilienceExecutions = 40
)

// Metric is one value of the suite.
type Metric struct {
	Name string `json:"name"`
	// Unit is the human-readable unit ("ratio", "fraction", "ways").
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// predictionMixes are the predictor-accuracy probe workloads: the paper's
// Fig. 6 mix plus one per remaining standalone BG benchmark, covering the
// bandwidth-heavy, cache-heavy, and mixed interference regimes.
func predictionMixes() []experiment.Mix {
	return []experiment.Mix{
		{Name: "raytrace rs", FG: []string{"raytrace"}, BG: fiveBG("rs")},
		{Name: "ferret bwaves", FG: []string{"ferret"}, BG: fiveBG("bwaves")},
		{Name: "streamcluster pca", FG: []string{"streamcluster"}, BG: fiveBG("pca")},
	}
}

// qosMixes are the completion-rate probe workloads. The first is the
// detailed mix the rival-policy and resilience probes also run.
func qosMixes() []experiment.Mix {
	return []experiment.Mix{
		{Name: "ferret rs", FG: []string{"ferret"}, BG: fiveBG("rs")},
		{Name: "bodytrack pca", FG: []string{"bodytrack"}, BG: fiveBG("pca")},
	}
}

func fiveBG(name string) []string {
	return []string{name, name, name, name, name}
}

// metricSlug turns a mix name into a metric-name component.
func metricSlug(mixName string) string {
	return strings.ReplaceAll(mixName, " ", "_")
}

// Run executes the probe suite and returns its metrics in suite order. It
// fails when a probe errors or the resilience probe breaks its
// graceful-degradation bounds.
func Run() ([]Metric, error) {
	var ms []Metric

	// --- Predictor accuracy ------------------------------------------------
	// A fresh runner per family keeps profile caches deterministic and
	// independent of probe ordering.
	pr := experiment.NewRunner()
	for _, mix := range predictionMixes() {
		res, err := pr.PredictionProbe(mix, predictionExecutions, 3)
		if err != nil {
			return nil, fmt.Errorf("benchreg: prediction probe %s: %w", mix.Name, err)
		}
		slug := metricSlug(mix.Name)
		ms = append(ms, Metric{"predictor_mean_error_" + slug, "fraction", res.MeanError})
	}

	// --- Controller QoS ----------------------------------------------------
	// Baseline + the two Dirigent configurations: completion rates of the
	// fine controller alone and of fine+coarse, the converged partition, and
	// the BG throughput retained — the paper's §5.4 quantities, derived from
	// each run's telemetry event stream by the experiment harness.
	qr := experiment.NewRunner()
	qr.Executions = qosExecutions
	qr.Warmup = 2
	qr.ConvergenceWarmup = 10
	for _, mix := range qosMixes() {
		res, err := qr.RunConfigs(mix, config.Baseline, config.DirigentFreq, config.Dirigent)
		if err != nil {
			return nil, fmt.Errorf("benchreg: qos probe %s: %w", mix.Name, err)
		}
		slug := metricSlug(mix.Name)
		dir := res.ByConfig[config.Dirigent]
		ms = append(ms,
			Metric{"qos_baseline_success_" + slug, "fraction", res.ByConfig[config.Baseline].MeanSuccessRate()},
			Metric{"qos_dirigentfreq_success_" + slug, "fraction", res.ByConfig[config.DirigentFreq].MeanSuccessRate()},
			Metric{"qos_dirigent_success_" + slug, "fraction", dir.MeanSuccessRate()},
			Metric{"qos_dirigent_bg_throughput_" + slug, "ratio", res.RelBGThroughput(config.Dirigent)},
			Metric{"qos_dirigent_fg_ways_" + slug, "ways", float64(dir.FGWays)},
		)
	}

	// --- Rival policy QoS --------------------------------------------------
	// The competing controllers behind the policy engine (RT-Gang and the
	// CORD-style static decomposition), pinned on the detailed mix. They run
	// in their own runner so the dirigent metrics above stay byte-identical
	// to those recorded before the policy engine existed.
	sr := experiment.NewRunner()
	sr.Executions = qosExecutions
	sr.Warmup = 2
	sr.ConvergenceWarmup = 10
	pmix := qosMixes()[0]
	sweep, err := sr.PolicySweep([]experiment.Mix{pmix},
		[]string{policy.NameRTGang, policy.NameCORDLike})
	if err != nil {
		return nil, fmt.Errorf("benchreg: policy probe %s: %w", pmix.Name, err)
	}
	pslug := metricSlug(pmix.Name)
	pmr := sweep.Mixes[0]
	ms = append(ms,
		Metric{"policy_rtgang_qos_" + pslug, "fraction", pmr.ByPolicy[policy.NameRTGang].MeanSuccessRate()},
		Metric{"policy_rtgang_bg_throughput_" + pslug, "ratio", pmr.RelBGThroughput(policy.NameRTGang)},
		Metric{"policy_cordlike_qos_" + pslug, "fraction", pmr.ByPolicy[policy.NameCORDLike].MeanSuccessRate()},
		Metric{"policy_cordlike_bg_throughput_" + pslug, "ratio", pmr.RelBGThroughput(policy.NameCORDLike)},
	)

	// --- Resilience --------------------------------------------------------
	// A shrunk fault-injection sweep (single moderate intensity) over the
	// detailed mix. The graceful-degradation contract is enforced here, not
	// just recorded: the worst per-class FG success at moderate intensity
	// must stay within 10 points of fault-free Dirigent, and re-profiling
	// must recover a stale profile to within 2 points of the fault-free
	// transient reference. The golden pins the exact seed-deterministic
	// outcomes on top of that.
	rr := experiment.NewRunner()
	rr.Executions = resilienceExecutions
	rr.ConvergenceWarmup = 16
	rmix := qosMixes()[0]
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
	ms = append(ms,
		Metric{"resilience_min_success_" + rslug, "fraction", minSucc},
		Metric{"resilience_reprofile_success_" + rslug, "fraction", res.RecoveredSuccess},
	)

	// --- Scenario suite ----------------------------------------------------
	// One pinned scenario per machine class, so a change to the class
	// configurations, the heterogeneous solver, or the scenario harness
	// shows up as metric drift even when no scenarios/*.json goal trips.
	for _, spec := range scenarioProbes() {
		sres, err := scenario.RunSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("benchreg: scenario probe %s: %w", spec.Name, err)
		}
		cslug := strings.ReplaceAll(spec.MachineClass, "-", "_")
		ms = append(ms,
			Metric{"scenario_qos_" + cslug, "fraction", sres.QoSSuccess},
			Metric{"scenario_bg_throughput_" + cslug, "ratio", sres.BGThroughput},
		)
	}
	return ms, nil
}

// scenarioProbes pins one scenario per machine class. The goals are
// deliberately loose: the golden pins the exact values, which is far
// stricter than any goal threshold.
func scenarioProbes() []scenario.Spec {
	return []scenario.Spec{
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
}
