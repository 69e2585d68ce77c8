package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// smallSpec is a cheap in-memory scenario for run tests.
func smallSpec() Spec {
	return Spec{
		Name:         "run-test-ferret-rs",
		MachineClass: "xeon-e5",
		Mix:          MixSpec{FG: []string{"ferret"}, BG: []string{"rs"}},
		Policy:       "dirigent",
		Executions:   8,
		Warmup:       2,
		Goals:        GoalSpec{MinQoSSuccess: 0.1, MinBGThroughput: 0.05},
	}
}

func TestRunSpecSmoke(t *testing.T) {
	res, err := RunSpec(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "run-test-ferret-rs" || res.MachineClass != "xeon-e5" || res.Policy != "dirigent" {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if res.QoSSuccess < 0 || res.QoSSuccess > 1 {
		t.Fatalf("QoS success %v outside [0,1]", res.QoSSuccess)
	}
	if res.BGThroughput <= 0 {
		t.Fatalf("BG throughput %v, want positive", res.BGThroughput)
	}
	if res.TailLatencyS <= 0 {
		t.Fatalf("tail latency %v, want positive", res.TailLatencyS)
	}
	if len(res.Goals) != 2 {
		t.Fatalf("goals evaluated = %d, want 2 (unset goal must not appear)", len(res.Goals))
	}
	if res.Mix != "ferret | rs" {
		t.Fatalf("mix label = %q", res.Mix)
	}
}

// TestRunSuiteDeterministic runs the same two-scenario suite twice and
// demands bit-identical results — the property that makes the suite a
// regression gate rather than a flaky benchmark.
func TestRunSuiteDeterministic(t *testing.T) {
	second := smallSpec()
	second.Name = "run-test-bodytrack-pca"
	second.Mix = MixSpec{FG: []string{"bodytrack"}, BG: []string{"pca"}}
	second.Policy = "rtgang"
	specs := []Spec{smallSpec(), second}

	a, err := RunSuite(specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("suite not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if a.Results[0].Name != specs[0].Name || a.Results[1].Name != specs[1].Name {
		t.Fatal("results not in spec order")
	}
	ja, err := RenderJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := RenderJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Fatal("JSON report not byte-identical across runs")
	}
}

func TestGoalDirections(t *testing.T) {
	if g := goal("min_qos_success", 0.9, 0.8, ">="); !g.Pass {
		t.Fatal("0.9 >= 0.8 should pass")
	}
	if g := goal("min_qos_success", 0.7, 0.8, ">="); g.Pass {
		t.Fatal("0.7 >= 0.8 should fail")
	}
	if g := goal("max_tail_latency_s", 0.1, 0.2, "<="); !g.Pass {
		t.Fatal("0.1 <= 0.2 should pass")
	}
	if g := goal("max_tail_latency_s", 0.3, 0.2, "<="); g.Pass {
		t.Fatal("0.3 <= 0.2 should fail")
	}
}

func TestRenderers(t *testing.T) {
	sr := &SuiteResult{
		Results: []Result{{
			Name: "demo", MachineClass: "xeon-e5", Policy: "dirigent",
			Mix: "ferret | rs", QoSSuccess: 0.95, BGThroughput: 0.42, TailLatencyS: 0.31,
			Goals: []GoalResult{
				{Name: "min_qos_success", Value: 0.95, Threshold: 0.9, Op: ">=", Pass: true},
				{Name: "max_tail_latency_s", Value: 0.31, Threshold: 0.2, Op: "<=", Pass: false},
			},
		}},
	}
	text := RenderText(sr)
	if !strings.Contains(text, "demo") || !strings.Contains(text, "FAILED") {
		t.Fatalf("text report wrong:\n%s", text)
	}
	if !strings.Contains(text, "VIOLATED") {
		t.Fatalf("text report should flag the violated goal:\n%s", text)
	}
	md := RenderMarkdown(sr)
	if !strings.Contains(md, "| demo |") || !strings.Contains(md, "❌") {
		t.Fatalf("markdown report wrong:\n%s", md)
	}
	sr.Pass = true
	sr.Results[0].Pass = true
	sr.Results[0].Goals[1].Pass = true
	if !strings.Contains(RenderText(sr), "all goals met") {
		t.Fatal("passing text report should say so")
	}
	if !strings.Contains(RenderMarkdown(sr), "✅") {
		t.Fatal("passing markdown report should use the pass marker")
	}
}

// selfTestSpec is a deliberately small scenario used by TestSelfTest:
// short runs on the default class under the dirigent policy.
func selfTestSpec(goals GoalSpec) Spec {
	return Spec{
		Name:         "selftest-ferret-rs",
		Description:  "injected-failure selftest scenario",
		MachineClass: "xeon-e5",
		Mix:          MixSpec{FG: []string{"ferret"}, BG: []string{"rs"}},
		Policy:       "dirigent",
		Executions:   10,
		Warmup:       2,
		Goals:        goals,
	}
}

// TestSelfTest proves the scenario gate can fail: it runs a small scenario
// twice — once with sane goals that must pass, once with an impossible
// tail-latency goal (1 µs) that must be reported as a violation. A failure
// means the gate is broken: either a healthy scenario fails or an injected
// violation goes undetected.
func TestSelfTest(t *testing.T) {
	ok, err := RunSpec(selfTestSpec(GoalSpec{MinQoSSuccess: 0.5}))
	if err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if !ok.Pass {
		t.Errorf("healthy scenario failed its goals: %+v", ok.Goals)
	}
	bad, err := RunSpec(selfTestSpec(GoalSpec{MaxTailLatencyS: 1e-6}))
	if err != nil {
		t.Fatalf("injected-failure run: %v", err)
	}
	if bad.Pass {
		t.Errorf("impossible tail-latency goal (1e-6s) not detected (measured %gs)", bad.TailLatencyS)
	}
}
