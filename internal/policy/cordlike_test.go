package policy

import (
	"math"
	"testing"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/machine"
)

func TestSlackBudget(t *testing.T) {
	profile := func(d time.Duration) StreamProfile {
		return StreamProfile{StandaloneDuration: d}
	}
	cases := []struct {
		name     string
		targets  []time.Duration
		profiles []StreamProfile
		want     float64
	}{
		{"no profiles assumes moderate", []time.Duration{time.Second}, nil, 0.15},
		{"zero standalone skipped", []time.Duration{time.Second}, []StreamProfile{profile(0)}, 0.15},
		{"single stream", []time.Duration{1200 * time.Millisecond}, []StreamProfile{profile(time.Second)}, 0.2},
		{
			"tightest stream wins",
			[]time.Duration{1400 * time.Millisecond, 1100 * time.Millisecond},
			[]StreamProfile{profile(time.Second), profile(time.Second)},
			0.1,
		},
		{
			"negative slack carried through",
			[]time.Duration{900 * time.Millisecond},
			[]StreamProfile{profile(time.Second)},
			-0.1,
		},
	}
	for _, c := range cases {
		if got := slackBudget(c.targets, c.profiles); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: slackBudget = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCORDLikeDecomposeMapping(t *testing.T) {
	llc, err := cache.New(cache.DefaultConfig()) // 20 ways
	if err != nil {
		t.Fatal(err)
	}
	grades := GradesForLevels(9)
	cases := []struct {
		budget      float64
		wantBGLevel int
		wantFGWays  int
	}{
		{0.40, grades[4], 5},  // generous: fast BG, small FG reserve (20/4)
		{0.28, grades[3], 6},  // 20/3
		{0.20, grades[2], 6},  // 20/3
		{0.10, grades[1], 10}, // 20/2
		{0.05, grades[0], 10}, // tight: floored BG, half the cache
	}
	m := machine.MustNew(machine.DefaultConfig())
	for _, c := range cases {
		p := &CORDLike{llc: llc, m: m}
		p.decompose(c.budget)
		if p.bgLevel != c.wantBGLevel {
			t.Errorf("budget %.2f: bgLevel = %d, want %d", c.budget, p.bgLevel, c.wantBGLevel)
		}
		if p.fgWays != c.wantFGWays {
			t.Errorf("budget %.2f: fgWays = %d, want %d", c.budget, p.fgWays, c.wantFGWays)
		}
	}
}

func TestCORDLikeInitAppliesStaticSplit(t *testing.T) {
	f := newRivalFixture(t)
	llc := f.m.LLC()
	fgClass := llc.DefineClass()
	bgClass := llc.DefineClass()
	// Mirror the session's pre-provisioning: the default class gives up
	// its ways so the policy's split can claim them.
	if err := llc.SetPartition(map[cache.ClassID]int{0: 0}); err != nil {
		t.Fatal(err)
	}
	b := f.binding()
	b.LLC, b.FGClass, b.BGClass = llc, fgClass, bgClass
	// Tight 5% budget: BG floored, half the cache reserved for FG.
	b.Targets = []time.Duration{1050 * time.Millisecond, 1050 * time.Millisecond}
	b.Profiles = []StreamProfile{
		{StandaloneDuration: time.Second},
		{StandaloneDuration: time.Second},
	}
	p := NewCORDLike()
	if err := p.Init(b); err != nil {
		t.Fatal(err)
	}
	if p.bgLevel != 0 {
		t.Errorf("bgLevel = %d, want floored 0", p.bgLevel)
	}
	wantFG := llc.Ways() / 2
	if p.fgWays != wantFG {
		t.Errorf("fgWays = %d, want %d", p.fgWays, wantFG)
	}
	if got, _ := llc.ClassWays(fgClass); got != wantFG {
		t.Errorf("applied FG partition = %d ways, want %d", got, wantFG)
	}
	if got, _ := llc.ClassWays(bgClass); got != llc.Ways()-wantFG {
		t.Errorf("applied BG partition = %d ways, want %d", got, llc.Ways()-wantFG)
	}
	for _, c := range []int{2, 3} {
		if f.level(t, c) != 0 {
			t.Errorf("BG core %d at level %d, want 0", c, f.level(t, c))
		}
	}
	top := f.m.MaxFreqLevel()
	for _, c := range []int{0, 1} {
		if f.level(t, c) != top {
			t.Errorf("FG core %d at level %d, want top %d", c, f.level(t, c), top)
		}
	}
}

func TestCORDLikeTickReassertsOperatingPoint(t *testing.T) {
	f := newRivalFixture(t)
	p := NewCORDLike()
	if err := p.Init(f.binding()); err != nil { // no LLC: DVFS-only static point
		t.Fatal(err)
	}
	// Assumed 0.15 budget → grades[2].
	if want := GradesForLevels(9)[2]; p.bgLevel != want {
		t.Fatalf("bgLevel = %d, want %d", p.bgLevel, want)
	}
	if err := f.m.SetFreqLevel(2, f.m.MaxFreqLevel()); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(f.m.Now(), make([]FGStatus, 2)); err != nil {
		t.Fatal(err)
	}
	if f.level(t, 2) != p.bgLevel {
		t.Errorf("BG core 2 at level %d after Tick, want re-asserted %d", f.level(t, 2), p.bgLevel)
	}
	if w := p.Window(); w.Decisions != 1 {
		t.Errorf("Decisions = %d, want 1", w.Decisions)
	}
}

func TestCORDLikeRejectsSharedClasses(t *testing.T) {
	f := newRivalFixture(t)
	b := f.binding()
	b.LLC = f.m.LLC() // FGClass == BGClass == 0
	if err := NewCORDLike().Init(b); err == nil {
		t.Error("Init with shared FG/BG classes must error")
	}
}

func TestCORDLikeLifecycle(t *testing.T) {
	f := newRivalFixture(t)
	p := NewCORDLike()
	if err := p.Init(f.binding()); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveFG(f.fgTasks[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveFG(f.fgTasks[0]); err == nil {
		t.Error("double RemoveFG must error")
	}
	if err := p.RemoveBG(f.bgTasks[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveBG(f.bgTasks[0]); err == nil {
		t.Error("double RemoveBG must error")
	}
}
