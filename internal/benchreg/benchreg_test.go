package benchreg

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// quickRun executes the reduced probe suite once and shares the result: the
// suite costs real wall time, and every consumer treats it as read-only or
// clones it first.
var quickRun = sync.OnceValues(func() (*Baseline, error) {
	return Run(QuickOptions())
})

func mustQuickRun(t *testing.T) *Baseline {
	t.Helper()
	b, err := quickRun()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// clone deep-copies a baseline via its JSON form — the same round trip a
// committed baseline file goes through.
func clone(t *testing.T, b *Baseline) *Baseline {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var c Baseline
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestBaselineRoundTrip is the recorder's core contract: record → save →
// load → check on an unchanged tree passes with zero failures.
// In particular the JSON encoding must round-trip every float64 exactly, or
// the Exact regime's 1e-9 epsilon would trip on serialization alone.
func TestBaselineRoundTrip(t *testing.T) {
	b := mustQuickRun(t)
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Metrics) != len(b.Metrics) {
		t.Fatalf("round trip changed metric count: %d != %d", len(loaded.Metrics), len(b.Metrics))
	}
	rep := Compare(loaded, b)
	if !rep.OK() {
		t.Fatalf("check against own recording not clean: %d fails\n%s", rep.Fails, rep.Text())
	}
}

// TestInjectedQoSRegressionFails verifies the gate's reason for existing: a
// 20% drop in a deterministic QoS completion rate must fail the check.
func TestInjectedQoSRegressionFails(t *testing.T) {
	base := mustQuickRun(t)
	cur := clone(t, base)
	injected := ""
	for i := range cur.Metrics {
		m := &cur.Metrics[i]
		if m.HigherBetter {
			scaleMetric(m, 0.8)
			injected = m.Name
			break
		}
	}
	if injected == "" {
		t.Fatal("suite produced no higher-is-better metric to degrade")
	}
	rep := Compare(base, cur)
	if rep.OK() {
		t.Fatalf("20%% drop in %s passed the gate\n%s", injected, rep.Text())
	}
	assertOutcome(t, rep, injected, Fail)
}

// scaleMetric multiplies every field a comparison might read.
func scaleMetric(m *Metric, factor float64) {
	for i := range m.Samples {
		m.Samples[i] *= factor
	}
	m.Median *= factor
	m.Min *= factor
}

func assertOutcome(t *testing.T, rep *Report, metric string, want Outcome) {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Metric == metric {
			if f.Outcome != want {
				t.Fatalf("%s: outcome %s, want %s (%s)", metric, f.Outcome, want, f.Msg)
			}
			return
		}
	}
	t.Fatalf("no finding for %s", metric)
}

// TestSuiteDeterministic re-runs the suite and requires every metric to
// reproduce bit-for-bit: the simulation is seeded, so the probes must be
// too. Skipped in -short mode (it costs a second full quick run).
func TestSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second suite run is slow")
	}
	first := mustQuickRun(t)
	second, err := Run(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := Compare(first, second)
	for _, f := range rep.Findings {
		if f.Outcome != OK {
			t.Errorf("%s: %g != %g across identical runs (%s)", f.Metric, f.Base, f.Cur, f.Msg)
		}
	}
}

func TestCompareSyntheticOutcomes(t *testing.T) {
	env := CurrentEnvironment()
	base := &Baseline{Schema: SchemaVersion, Env: env, Metrics: []Metric{
		exact("same", "u", true, 0.95),
		exact("worse", "u", true, 0.95),
		exact("changed", "u", false, 4),
		exact("gone", "u", true, 1),
	}}
	cur := &Baseline{Schema: SchemaVersion, Env: env, Metrics: []Metric{
		exact("same", "u", true, 0.95),
		exact("worse", "u", true, 0.9),
		exact("changed", "u", false, 3), // a lower error is still a change
		exact("fresh", "u", true, 2),    // not in baseline
	}}
	rep := Compare(base, cur)
	assertOutcome(t, rep, "same", OK)
	assertOutcome(t, rep, "worse", Fail)
	assertOutcome(t, rep, "changed", Fail)
	assertOutcome(t, rep, "gone", Fail) // a vanished probe is a regression
	assertOutcome(t, rep, "fresh", New)
	if rep.Fails != 3 {
		t.Fatalf("fails=%d, want 3\n%s", rep.Fails, rep.Text())
	}
}

func TestExactEpsilon(t *testing.T) {
	env := CurrentEnvironment()
	mk := func(v float64) *Baseline {
		return &Baseline{Schema: SchemaVersion, Env: env,
			Metrics: []Metric{exact("m", "u", true, v)}}
	}
	v := 0.9583333333333334
	rep := Compare(mk(v), mk(v*(1+1e-12)))
	if !rep.OK() {
		t.Fatalf("sub-epsilon drift must pass\n%s", rep.Text())
	}
	rep = Compare(mk(v), mk(v*(1+1e-6)))
	if rep.OK() {
		t.Fatalf("super-epsilon drift must fail\n%s", rep.Text())
	}
}

func TestBaselineNumbering(t *testing.T) {
	dir := t.TempDir()
	if _, err := LatestPath(dir); err == nil {
		t.Fatal("LatestPath on an empty dir must error")
	}
	next, err := NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(next) != "BENCH_1.json" {
		t.Fatalf("first baseline is %s, want BENCH_1.json", filepath.Base(next))
	}
	b := &Baseline{Schema: SchemaVersion, Tool: "test", Env: CurrentEnvironment(),
		Metrics: []Metric{exact("m", "u", false, 1)}}
	for _, name := range []string{"BENCH_1.json", "BENCH_2.json", "BENCH_10.json"} {
		if err := b.Save(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := LatestPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != "BENCH_10.json" {
		t.Fatalf("latest is %s, want BENCH_10.json (numeric, not lexical, order)", filepath.Base(latest))
	}
	next, err = NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(next) != "BENCH_11.json" {
		t.Fatalf("next is %s, want BENCH_11.json", filepath.Base(next))
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	wrongSchema := filepath.Join(dir, "schema.json")
	if err := os.WriteFile(wrongSchema, []byte(`{"schema": 999, "metrics": [{"name":"m"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(wrongSchema); err == nil {
		t.Fatal("Load must reject a future schema version")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema": 1, "metrics": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Fatal("Load must reject a baseline with no metrics")
	}
}

// TestMetricStats pins the schema-1 record of a value: every summary field
// an older reader of BENCH_<n>.json might compare carries the value.
func TestMetricStats(t *testing.T) {
	m := exact("m", "fraction", true, 0.75)
	if m.Kind != Exact || m.Stat != "median" || !m.HigherBetter {
		t.Fatalf("record %+v, want kind exact, stat median, higher-better", m)
	}
	if len(m.Samples) != 1 || m.Samples[0] != 0.75 || m.Median != 0.75 || m.Min != 0.75 {
		t.Fatalf("record %+v does not carry 0.75 in samples, median and min", m)
	}
	if m.Value() != 0.75 {
		t.Fatalf("value = %g, want 0.75", m.Value())
	}
}

// TestSuiteShape pins the metric families every recorded baseline must
// contain, so a probe cannot silently disappear from the suite itself.
func TestSuiteShape(t *testing.T) {
	b := mustQuickRun(t)
	for _, name := range []string{
		"predictor_mean_error_raytrace_rs",
		"qos_baseline_success_ferret_rs",
		"qos_dirigentfreq_success_ferret_rs",
		"qos_dirigent_success_ferret_rs",
		"qos_dirigent_bg_throughput_ferret_rs",
		"qos_dirigent_fg_ways_ferret_rs",
	} {
		m := b.Metric(name)
		if m == nil {
			t.Errorf("quick suite missing metric %s", name)
			continue
		}
		if len(m.Samples) == 0 || math.IsNaN(m.Value()) {
			t.Errorf("%s has no usable value", name)
		}
	}
	for _, m := range b.Metrics {
		if m.Kind != Exact {
			t.Errorf("%s has kind %q, want %q", m.Name, m.Kind, Exact)
		}
	}
}
