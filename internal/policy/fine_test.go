package policy

import (
	"reflect"
	"testing"
	"time"

	"dirigent/internal/machine"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// fineFixture builds a machine with 1 FG (core 0) + 5 BG (cores 1-5) and a
// fine controller over them. Counters are observed through an aggregator on
// the controller's telemetry stream, exactly as the experiment harness does.
type fineFixture struct {
	m       *machine.Machine
	fc      *FineController
	agg     *telemetry.Aggregator
	fgTask  int
	bgTasks []int
}

// fine returns the aggregated fine-controller counters.
func (f *fineFixture) fine() telemetry.FineStats { return f.agg.Fine() }

func newFineFixture(t *testing.T) *fineFixture {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig())
	fgProg := workload.MustProgram(workload.MustByName("ferret"))
	fgTask, err := m.Launch("ferret", fgProg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bgTasks []int
	for c := 1; c < 6; c++ {
		prog := workload.MustProgram(workload.MustByName("bwaves"))
		id, err := m.Launch("bwaves", prog, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		bgTasks = append(bgTasks, id)
	}
	agg := telemetry.NewAggregator()
	fc, err := NewFineController(m, []int{fgTask}, []int{0}, bgTasks, []int{1, 2, 3, 4, 5}, agg)
	if err != nil {
		t.Fatal(err)
	}
	return &fineFixture{m: m, fc: fc, agg: agg, fgTask: fgTask, bgTasks: bgTasks}
}

// status builds an FGStatus with the given normalized slack (positive =
// ahead) against a 1 s target.
func statusWithSlack(slack float64) FGStatus {
	target := time.Second
	deadline := sim.Time(2 * time.Second)
	predicted := deadline - sim.Time(float64(target)*slack)
	return FGStatus{Predicted: predicted, Deadline: deadline, Target: target}
}

func (f *fineFixture) bgGrades(t *testing.T) []int {
	t.Helper()
	out := make([]int, 5)
	for i, c := range []int{1, 2, 3, 4, 5} {
		l, err := f.m.FreqLevel(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l
	}
	return out
}

func TestNewFineControllerValidation(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	if _, err := NewFineController(nil, []int{1}, []int{0}, nil, nil, nil); err == nil {
		t.Error("nil machine should error")
	}
	if _, err := NewFineController(m, nil, nil, nil, nil, nil); err == nil {
		t.Error("no FG should error")
	}
	if _, err := NewFineController(m, []int{1}, []int{0, 1}, nil, nil, nil); err == nil {
		t.Error("FG length mismatch should error")
	}
	if _, err := NewFineController(m, []int{1}, []int{0}, []int{2}, nil, nil); err == nil {
		t.Error("BG length mismatch should error")
	}
}

func TestFineControllerInitialGrades(t *testing.T) {
	f := newFineFixture(t)
	// All managed cores pinned to the top grade (level 8 = 2.0 GHz).
	for c := 0; c < 6; c++ {
		l, _ := f.m.FreqLevel(c)
		if l != 8 {
			t.Errorf("core %d level = %d, want 8", c, l)
		}
	}
}

func TestDecideStatusCountMismatch(t *testing.T) {
	f := newFineFixture(t)
	if err := f.fc.Decide(0, nil); err == nil {
		t.Error("status count mismatch should error")
	}
}

func TestAheadThrottlesBGLastFGFirst(t *testing.T) {
	// Paper order when ahead: resume paused → speed up throttled BG →
	// throttle FG. Starting with everything at max, being ahead must
	// throttle the FG (nothing to resume or speed up).
	f := newFineFixture(t)
	if err := f.fc.Decide(0, []FGStatus{statusWithSlack(0.2)}); err != nil {
		t.Fatal(err)
	}
	l, _ := f.m.FreqLevel(0)
	if l != 6 { // one grade below 8 in {0,2,4,6,8}
		t.Errorf("FG level = %d, want 6 (one grade down)", l)
	}
	for _, g := range f.bgGrades(t) {
		if g != 8 {
			t.Errorf("BG should stay at max, got %d", g)
		}
	}
	if f.fine().FGThrottles == 0 {
		t.Error("FGThrottles should count")
	}
}

func TestBehindBoostsFGThenThrottlesBG(t *testing.T) {
	f := newFineFixture(t)
	// First make FG throttled by being ahead twice.
	_ = f.fc.Decide(0, []FGStatus{statusWithSlack(0.2)})
	_ = f.fc.Decide(0, []FGStatus{statusWithSlack(0.2)})
	l, _ := f.m.FreqLevel(0)
	if l != 4 {
		t.Fatalf("setup: FG level = %d", l)
	}
	// Now behind: FG must jump straight to max; BG untouched this round.
	if err := f.fc.Decide(0, []FGStatus{statusWithSlack(-0.05)}); err != nil {
		t.Fatal(err)
	}
	l, _ = f.m.FreqLevel(0)
	if l != 8 {
		t.Errorf("FG level = %d, want boosted to 8", l)
	}
	for _, g := range f.bgGrades(t) {
		if g != 8 {
			t.Errorf("BG should be untouched while FG boosts, got %d", g)
		}
	}
	// Behind again with FG already at max: BG throttles one grade.
	if err := f.fc.Decide(0, []FGStatus{statusWithSlack(-0.05)}); err != nil {
		t.Fatal(err)
	}
	for _, g := range f.bgGrades(t) {
		if g != 6 {
			t.Errorf("BG level = %d, want 6", g)
		}
	}
	if f.fine().BGThrottles == 0 || f.fine().FGMaxBoosts == 0 {
		t.Errorf("stats not counted: %+v", f.fine())
	}
}

func TestPauseOnlyWhenBadlyBehindAndBGAtMin(t *testing.T) {
	f := newFineFixture(t)
	// Drive BG to min grade: FG at max and behind → 4 throttle rounds.
	for i := 0; i < 4; i++ {
		_ = f.fc.Decide(0, []FGStatus{statusWithSlack(-0.05)})
	}
	for _, g := range f.bgGrades(t) {
		if g != 0 {
			t.Fatalf("setup: BG level = %d, want 0", g)
		}
	}
	// Mildly behind (< 10%): no pause.
	_ = f.fc.Decide(0, []FGStatus{statusWithSlack(-0.05)})
	for _, bt := range f.bgTasks {
		if p, _ := f.m.Paused(bt); p {
			t.Error("mildly-behind decision should not pause")
		}
	}
	// Badly behind: pause exactly one (the most intrusive).
	_ = f.fc.Decide(0, []FGStatus{statusWithSlack(-0.2)})
	paused := 0
	for _, bt := range f.bgTasks {
		if p, _ := f.m.Paused(bt); p {
			paused++
		}
	}
	if paused != 1 {
		t.Errorf("paused = %d, want exactly 1", paused)
	}
	if f.fine().PausesIssued != 1 {
		t.Errorf("PausesIssued = %d", f.fine().PausesIssued)
	}
}

func TestPausesMostIntrusiveBG(t *testing.T) {
	// Mix of lbm (heavy) and namd (light): the paused task must be an lbm.
	m := machine.MustNew(machine.DefaultConfig())
	fgTask, _ := m.Launch("ferret", workload.MustProgram(workload.MustByName("ferret")), 0, 0)
	var bgTasks []int
	names := []string{"namd", "lbm", "namd", "lbm", "namd"}
	for i, n := range names {
		id, err := m.Launch(n, workload.MustProgram(workload.MustByName(n)), i+1, 0)
		if err != nil {
			t.Fatal(err)
		}
		bgTasks = append(bgTasks, id)
	}
	fc, err := NewFineController(m, []int{fgTask}, []int{0}, bgTasks, []int{1, 2, 3, 4, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Let tasks run so miss counters accumulate.
	for i := 0; i < 200; i++ {
		m.StepN(1)
	}
	// Drive BG to min, then force a pause.
	for i := 0; i < 4; i++ {
		_ = fc.Decide(m.Now(), []FGStatus{statusWithSlack(-0.05)})
		for j := 0; j < 50; j++ {
			m.StepN(1)
		}
	}
	_ = fc.Decide(m.Now(), []FGStatus{statusWithSlack(-0.3)})
	for i, bt := range bgTasks {
		if p, _ := m.Paused(bt); p {
			if names[i] != "lbm" {
				t.Errorf("paused %s (task %d), want an lbm", names[i], i)
			}
			return
		}
	}
	t.Error("no BG task paused")
}

func TestAheadResumesPausedFirst(t *testing.T) {
	f := newFineFixture(t)
	// Get one BG paused.
	for i := 0; i < 4; i++ {
		_ = f.fc.Decide(0, []FGStatus{statusWithSlack(-0.05)})
	}
	_ = f.fc.Decide(0, []FGStatus{statusWithSlack(-0.2)})
	// Releases are rate-limited: the hold-off count of consecutive ahead
	// decisions must elapse before the resume fires, and the first release
	// must be resuming, not speeding up.
	gradesBefore := f.bgGrades(t)
	for i := 0; i < DefaultSpeedupHoldoff-1; i++ {
		if err := f.fc.Decide(0, []FGStatus{statusWithSlack(0.2)}); err != nil {
			t.Fatal(err)
		}
		for _, bt := range f.bgTasks {
			if p, _ := f.m.Paused(bt); p {
				goto stillPaused
			}
		}
		t.Fatal("resume fired before the hold-off elapsed")
	stillPaused:
	}
	if err := f.fc.Decide(0, []FGStatus{statusWithSlack(0.2)}); err != nil {
		t.Fatal(err)
	}
	for _, bt := range f.bgTasks {
		if p, _ := f.m.Paused(bt); p {
			t.Error("hold-off elapsed: paused BG should resume")
		}
	}
	for i, g := range f.bgGrades(t) {
		if g != gradesBefore[i] {
			t.Error("resume round should not also change frequencies")
		}
	}
	if f.fine().Resumes != 1 {
		t.Errorf("Resumes = %d", f.fine().Resumes)
	}
	// Next full hold-off of ahead rounds: speed up BG one grade.
	for i := 0; i < DefaultSpeedupHoldoff; i++ {
		_ = f.fc.Decide(0, []FGStatus{statusWithSlack(0.2)})
	}
	for _, g := range f.bgGrades(t) {
		if g != 2 {
			t.Errorf("BG level = %d, want 2 (one grade up from 0)", g)
		}
	}
	if f.fine().BGSpeedups != 1 {
		t.Errorf("BGSpeedups = %d", f.fine().BGSpeedups)
	}
}

func TestNeutralZoneNoAction(t *testing.T) {
	f := newFineFixture(t)
	// Slack within the hysteresis band (behind 1.5%, ahead 4%): no action.
	if err := f.fc.Decide(0, []FGStatus{statusWithSlack(0.03)}); err != nil {
		t.Fatal(err)
	}
	l, _ := f.m.FreqLevel(0)
	if l != 8 {
		t.Errorf("FG level = %d, want unchanged 8", l)
	}
	for _, g := range f.bgGrades(t) {
		if g != 8 {
			t.Errorf("BG level = %d, want unchanged 8", g)
		}
	}
}

func TestMultiFGMixedTendency(t *testing.T) {
	// Two FG streams: one behind, one ahead. BG throttles for the slowest;
	// the ahead FG throttles individually (§4.3 multi-FG policy).
	m := machine.MustNew(machine.DefaultConfig())
	fg1, _ := m.Launch("ferret", workload.MustProgram(workload.MustByName("ferret")), 0, 0)
	fg2, _ := m.Launch("raytrace", workload.MustProgram(workload.MustByName("raytrace")), 1, 0)
	var bgTasks []int
	for c := 2; c < 6; c++ {
		id, _ := m.Launch("bwaves", workload.MustProgram(workload.MustByName("bwaves")), c, 0)
		bgTasks = append(bgTasks, id)
	}
	fc, err := NewFineController(m, []int{fg1, fg2}, []int{0, 1}, bgTasks, []int{2, 3, 4, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// fg1 behind (already at max → BG throttles), fg2 ahead (throttles).
	if err := fc.Decide(0, []FGStatus{statusWithSlack(-0.05), statusWithSlack(0.15)}); err != nil {
		t.Fatal(err)
	}
	l1, _ := m.FreqLevel(0)
	if l1 != 8 {
		t.Errorf("behind FG level = %d, want 8", l1)
	}
	l2, _ := m.FreqLevel(1)
	if l2 != 6 {
		t.Errorf("ahead FG level = %d, want 6", l2)
	}
	for _, c := range []int{2, 3, 4, 5} {
		l, _ := m.FreqLevel(c)
		if l != 6 {
			t.Errorf("BG core %d level = %d, want 6", c, l)
		}
	}
}

func TestWindowAndAggregatedStats(t *testing.T) {
	f := newFineFixture(t)
	_ = f.fc.Decide(sim.Time(time.Second), []FGStatus{statusWithSlack(0.2)})
	if w := f.fc.Window(); w.Decisions != 1 {
		t.Errorf("Window = %+v", w)
	}
	s := f.fine()
	if s.Decisions != 1 || s.LastDecisionAt != sim.Time(time.Second) {
		t.Errorf("aggregated stats = %+v", s)
	}
	f.fc.ResetWindow()
	if f.fc.Window().Decisions != 0 {
		t.Error("ResetWindow should clear the window")
	}
	// The window is control state for the coarse controller; the aggregated
	// stream is cumulative and must survive the reset.
	if f.fine().Decisions != 1 {
		t.Error("aggregated counters must survive a window reset")
	}
}

func TestBGSuppressedTelemetry(t *testing.T) {
	f := newFineFixture(t)
	for i := 0; i < 4; i++ {
		_ = f.fc.Decide(0, []FGStatus{statusWithSlack(-0.05)})
	}
	before := f.fine().BGSuppressed
	windowBefore := f.fc.Window().BGSuppressed
	_ = f.fc.Decide(0, []FGStatus{statusWithSlack(-0.05)})
	if f.fine().BGSuppressed != before+1 {
		t.Errorf("BGSuppressed should count decisions with BG at min: %+v", f.fine())
	}
	if f.fc.Window().BGSuppressed != windowBefore+1 {
		t.Errorf("window BGSuppressed should track too: %+v", f.fc.Window())
	}
}

func TestZeroTargetSlack(t *testing.T) {
	s := FGStatus{Predicted: 100, Deadline: 200, Target: 0}
	if s.slack() != 0 {
		t.Errorf("slack with zero target = %g, want 0", s.slack())
	}
}

func TestGradesForLevels(t *testing.T) {
	cases := []struct {
		levels int
		want   []int
	}{
		{9, []int{0, 2, 4, 6, 8}}, // the paper's ladder (§5.1)
		{5, []int{0, 1, 2, 3, 4}},
		{4, []int{0, 1, 2, 3}},
		{1, []int{0}},
		{7, []int{0, 1, 3, 4, 6}},
		{13, []int{0, 3, 6, 9, 12}},
		{0, nil},
	}
	for _, c := range cases {
		got := GradesForLevels(c.levels)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("GradesForLevels(%d) = %v, want %v", c.levels, got, c.want)
		}
		// Grades must be valid, strictly ascending level indices ending at
		// the top level so controllers can always boost to max.
		if c.levels > 0 {
			if got[len(got)-1] != c.levels-1 {
				t.Errorf("GradesForLevels(%d) top grade %d != top level", c.levels, got[len(got)-1])
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Errorf("GradesForLevels(%d) not strictly ascending: %v", c.levels, got)
				}
			}
		}
	}
}

// TestFineControllerShortLadder builds the fine controller on a 5-level
// ladder machine (the quad-low class shape) and checks the grades adapt
// instead of rejecting the machine.
func TestFineControllerShortLadder(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.FreqLevelsGHz = []float64{1.0, 1.2, 1.4, 1.6, 1.8}
	m := machine.MustNew(cfg)
	fg, err := m.Launch("fg", workload.MustProgram(workload.MustByName("ferret")), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := m.Launch("bg", workload.MustProgram(workload.MustByName("rs")), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFineController(m, []int{fg}, []int{0}, []int{bg}, []int{1}, nil)
	if err != nil {
		t.Fatalf("five-level ladder rejected: %v", err)
	}
	if got, want := fc.grades, []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("grades = %v, want %v", got, want)
	}
}
