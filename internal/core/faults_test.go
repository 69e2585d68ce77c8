package core

import (
	"errors"
	"testing"
	"time"

	"dirigent/internal/fault"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// buildFaultyColo is buildColo with a fault injector installed in the
// machine (and returned for count assertions).
func buildFaultyColo(t *testing.T, fg []string, bg string, plan fault.Plan, seed uint64) (*sched.Colocation, *fault.Injector) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	inj := fault.NewInjector(plan, seed, nil)
	cfg.Faults = inj
	m := machine.MustNew(cfg)
	var fgb []*workload.Benchmark
	for _, n := range fg {
		fgb = append(fgb, workload.MustByName(n))
	}
	specs := make([]sched.BGSpec, 6-len(fg))
	for i := range specs {
		specs[i] = sched.BGSpec{Bench: workload.MustByName(bg)}
	}
	colo, err := sched.New(m, fgb, specs, sched.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return colo, inj
}

// statusWithSlack builds a policy.FGStatus with the given normalized slack
// (positive = ahead) against a 1 s target.
func statusWithSlack(slack float64) policy.FGStatus {
	target := time.Second
	deadline := sim.Time(2 * time.Second)
	predicted := deadline - sim.Time(float64(target)*slack)
	return policy.FGStatus{Predicted: predicted, Deadline: deadline, Target: target}
}

func TestFineControllerSurfacesDVFSFaults(t *testing.T) {
	colo, inj := buildFaultyColo(t, []string{"ferret"}, "bwaves", fault.Plan{DVFSFail: 1}, 41)
	m := colo.Machine()
	agg := telemetry.NewAggregator()
	fgTask := colo.FG()[0].Task
	var bgTasks, bgCores []int
	for _, w := range colo.BG() {
		bgTasks = append(bgTasks, w.Task)
		c, _ := m.TaskCore(w.Task)
		bgCores = append(bgCores, c)
	}
	fc, err := policy.NewFineController(m, []int{fgTask}, []int{0}, bgTasks, bgCores, agg)
	if err != nil {
		t.Fatal(err)
	}
	// FG starts at the top grade, so a behind decision throttles all five
	// BG cores; every request is dropped by the plan. The controller must
	// survive, count the failures, and emit them — not panic or mask them.
	if err := fc.Decide(0, []policy.FGStatus{statusWithSlack(-0.06)}); err != nil {
		t.Fatal(err)
	}
	w := fc.Window()
	if w.ActuationFailures != 5 {
		t.Errorf("ActuationFailures = %d, want 5 (one per BG core)", w.ActuationFailures)
	}
	if inj.Count(fault.ClassDVFSFail) != 5 {
		t.Errorf("injected DVFS faults = %d, want 5", inj.Count(fault.ClassDVFSFail))
	}
	for _, c := range bgCores {
		if l, _ := m.FreqLevel(c); l != m.MaxFreqLevel() {
			t.Errorf("core %d moved to level %d despite dropped actuation", c, l)
		}
	}
	fc.ResetWindow()
	if fc.Window().ActuationFailures != 0 {
		t.Error("ResetWindow must clear actuation failures")
	}
}

func TestFineControllerSurfacesPauseFaults(t *testing.T) {
	colo, inj := buildFaultyColo(t, []string{"ferret"}, "bwaves", fault.Plan{PauseFail: 1}, 43)
	m := colo.Machine()
	fgTask := colo.FG()[0].Task
	var bgTasks, bgCores []int
	for _, w := range colo.BG() {
		bgTasks = append(bgTasks, w.Task)
		c, _ := m.TaskCore(w.Task)
		bgCores = append(bgCores, c)
	}
	fc, err := policy.NewFineController(m, []int{fgTask}, []int{0}, bgTasks, bgCores, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drive badly-behind decisions: BG throttles one grade per decision
	// until all cores sit at the bottom grade, then the controller reaches
	// for the pause — which the plan drops.
	colo.Step() // accumulate some LLC misses for the intrusiveness ranking
	for i := 0; i < len(policy.DefaultGrades())+2; i++ {
		if err := fc.Decide(m.Now(), []policy.FGStatus{statusWithSlack(-0.2)}); err != nil {
			t.Fatal(err)
		}
	}
	if inj.Count(fault.ClassPauseFail) == 0 {
		t.Fatal("pause fault never drawn — pause path not reached")
	}
	if fc.Window().ActuationFailures == 0 {
		t.Error("dropped pause not surfaced in the window")
	}
	for _, task := range bgTasks {
		if p, _ := m.Paused(task); p {
			t.Error("task paused despite dropped actuation")
		}
	}
}

func TestProfileOnlineTimeoutTypedError(t *testing.T) {
	colo := buildColo(t, []string{"fluidanimate"}, "rs", false, 37)
	p, err := ProfileOnline(colo, 0, OnlineProfileOptions{Limit: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("a 20 ms limit cannot fit a warmup execution; want timeout")
	}
	if !errors.Is(err, ErrProfileTimeout) {
		t.Errorf("err = %v, want ErrProfileTimeout", err)
	}
	if p != nil {
		t.Error("timeout must not return a partial profile")
	}
	// The deferred restore runs on the error path too.
	for _, w := range colo.BG() {
		if paused, _ := colo.Machine().Paused(w.Task); paused {
			t.Error("BG task left paused after timed-out profiling")
		}
	}
}

func TestProfileOnlineRetriesDroppedResumes(t *testing.T) {
	colo, inj := buildFaultyColo(t, []string{"fluidanimate"}, "rs", fault.Plan{ResumeFail: 0.3}, 47)
	if _, err := ProfileOnline(colo, 0, OnlineProfileOptions{}); err != nil {
		t.Fatal(err)
	}
	if inj.Count(fault.ClassResumeFail) == 0 {
		t.Fatal("no resume fault drawn — the retry path was not exercised")
	}
	for _, w := range colo.BG() {
		if paused, _ := colo.Machine().Paused(w.Task); paused {
			t.Error("BG task left paused despite resume retries")
		}
	}
}

func TestRuntimeReprofilesOnChronicDrift(t *testing.T) {
	colo := buildColo(t, []string{"fluidanimate"}, "namd", false, 53)
	fresh := profileFor(t, "fluidanimate")
	stale := StaleProfile(fresh, 0.7, 0.5)
	agg := telemetry.NewAggregator()
	rt, err := NewRuntime(colo, []*Profile{stale}, RuntimeConfig{
		Targets:             []time.Duration{700 * time.Millisecond},
		Recorder:            agg,
		ReprofileAlphaDrift: 0.12,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := colo.FG()[0].Completed()
	if err := rt.RunExecutions(start+12, sim.Time(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if rt.Reprofiles() < 1 {
		t.Fatal("chronic α drift from a stale profile never triggered a re-profile")
	}
	if rt.Reprofiles() > 2 {
		t.Errorf("Reprofiles = %d; an accurate rebuilt profile should not keep drifting", rt.Reprofiles())
	}
	if agg.Reprofiles() != rt.Reprofiles() {
		t.Errorf("telemetry reprofiles %d != runtime %d", agg.Reprofiles(), rt.Reprofiles())
	}
	// After recovery the predictor should track reality closely again.
	if err := rt.RunExecutions(start+16, sim.Time(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
}
