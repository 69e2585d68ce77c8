package machine

import (
	"testing"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/sim"
	"dirigent/internal/workload"
)

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// run steps m until the quantum boundary at or after until, in the
// StepN batches every stepping loop uses.
func run(m *Machine, until time.Duration) {
	for m.Now() < sim.Time(until) {
		m.StepN(m.QuantaUntil(sim.Time(until)))
	}
}

func launch(t *testing.T, m *Machine, bench string, core int, class cache.ClassID) int {
	t.Helper()
	prog := workload.MustProgram(workload.MustByName(bench))
	id, err := m.Launch(bench, prog, core, class)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// runUntilCompletions steps until task has completed n executions, with a
// simulated-time safety limit, returning completion times.
func runUntilCompletions(t *testing.T, m *Machine, task, n int, limit time.Duration) []sim.Time {
	t.Helper()
	var times []sim.Time
	for len(times) < n {
		if m.Now() > sim.Time(limit) {
			t.Fatalf("task %d: only %d/%d completions within %v", task, len(times), n, limit)
		}
		done, _ := m.StepN(1)
		for _, c := range done {
			if c.Task == task {
				times = append(times, c.At)
			}
		}
	}
	return times
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{Cores: 6},
		{Cores: 6, FreqLevelsGHz: []float64{2.0, 1.2}, Quantum: time.Millisecond, Cache: cache.DefaultConfig()},
		{Cores: 6, FreqLevelsGHz: []float64{0}, Quantum: time.Millisecond, Cache: cache.DefaultConfig()},
		{Cores: 6, FreqLevelsGHz: []float64{1.2, 1.2}, Quantum: time.Millisecond, Cache: cache.DefaultConfig()},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	cfg := DefaultConfig()
	cfg.Quantum = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero quantum should be rejected")
	}
	cfg = DefaultConfig()
	cfg.Cache.Ways = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad cache config should be rejected")
	}
	cfg = DefaultConfig()
	cfg.Memory.PeakBandwidth = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad memory config should be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config should panic")
		}
	}()
	MustNew(Config{})
}

func TestLaunchAndTaskAccessors(t *testing.T) {
	m := newTestMachine(t)
	id := launch(t, m, "ferret", 0, 0)
	if task := m.tasks[id]; len(m.tasks) != 1 || task.core != 0 || task.name != "ferret" || task.program.Benchmark().Name != "ferret" {
		t.Errorf("tasks = %v, want ferret on core 0 as task %d", m.tasks, id)
	}
	// Core busy.
	if _, err := m.Launch("x", workload.MustProgram(workload.MustByName("namd")), 0, 0); err == nil {
		t.Error("double-launch on core 0 should error")
	}
	// Bad core.
	if _, err := m.Launch("x", workload.MustProgram(workload.MustByName("namd")), 9, 0); err == nil {
		t.Error("bad core should error")
	}
	// Nil program.
	if _, err := m.Launch("x", nil, 1, 0); err == nil {
		t.Error("nil program should error")
	}
	// Bad class.
	if _, err := m.Launch("x", workload.MustProgram(workload.MustByName("namd")), 1, cache.ClassID(99)); err == nil {
		t.Error("bad class should error")
	}
	// Kill frees the core.
	if err := m.Kill(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Kill(id); err == nil {
		t.Error("double kill should error")
	}
	if _, err := m.Launch("y", workload.MustProgram(workload.MustByName("namd")), 0, 0); err != nil {
		t.Errorf("core should be free after Kill: %v", err)
	}
}

func TestUnknownTaskErrors(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Pause(42); err == nil {
		t.Error("Pause(unknown) should error")
	}
	if err := m.Resume(42); err == nil {
		t.Error("Resume(unknown) should error")
	}
	if _, err := m.Paused(42); err == nil {
		t.Error("Paused(unknown) should error")
	}
	if err := m.SetProgram(42, nil); err == nil {
		t.Error("SetProgram(unknown) should error")
	}
}

func TestFreqControls(t *testing.T) {
	m := newTestMachine(t)
	if m.MaxFreqLevel() != 8 {
		t.Errorf("MaxFreqLevel = %d, want 8 (9 steps)", m.MaxFreqLevel())
	}
	if l, _ := m.FreqLevel(0); l != 8 {
		t.Errorf("cores should start at max level, got %d", l)
	}
	if f, _ := m.FreqGHz(0); f != 2.0 {
		t.Errorf("FreqGHz = %g", f)
	}
	if err := m.SetFreqLevel(0, 0); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.FreqGHz(0); f != 1.2 {
		t.Errorf("FreqGHz after set = %g", f)
	}
	if err := m.SetFreqLevel(0, 99); err == nil {
		t.Error("bad level should error")
	}
	if err := m.SetFreqLevel(9, 0); err == nil {
		t.Error("bad core should error")
	}
	if _, err := m.FreqLevel(-1); err == nil {
		t.Error("bad core should error")
	}
	if _, err := m.FreqGHz(-1); err == nil {
		t.Error("bad core should error")
	}
}

func TestStandaloneFGExecutionTimes(t *testing.T) {
	// Calibration against Fig. 4: standalone times span ~0.5–1.6 s with
	// fluidanimate fastest and streamcluster slowest.
	want := map[string][2]float64{
		"fluidanimate":  {0.35, 0.75},
		"raytrace":      {0.40, 0.85},
		"bodytrack":     {0.55, 1.10},
		"ferret":        {0.85, 1.55},
		"streamcluster": {1.20, 2.10},
	}
	got := map[string]float64{}
	for name, bounds := range want {
		m := newTestMachine(t)
		id := launch(t, m, name, 0, 0)
		times := runUntilCompletions(t, m, id, 2, 10*time.Second)
		// Use the second execution: the first includes cache warmup.
		exec := (times[1] - times[0]).Seconds()
		got[name] = exec
		if exec < bounds[0] || exec > bounds[1] {
			t.Errorf("%s standalone exec = %.3fs, want within [%.2f, %.2f]", name, exec, bounds[0], bounds[1])
		}
	}
	if got["streamcluster"] <= got["ferret"] || got["ferret"] <= got["bodytrack"] ||
		got["bodytrack"] <= got["fluidanimate"] {
		t.Errorf("standalone ordering wrong: %v", got)
	}
}

func TestContentionSlowsFGAndRaisesMPKI(t *testing.T) {
	// Fig. 4's contended bars: running 5 bwaves alongside ferret must
	// increase both execution time and MPKI.
	alone := newTestMachine(t)
	idA := launch(t, alone, "ferret", 0, 0)
	timesA := runUntilCompletions(t, alone, idA, 3, 20*time.Second)
	execAlone := (timesA[2] - timesA[1]).Seconds()
	mpkiAlone := alone.Counters().Task(idA).MPKI()

	cont := newTestMachine(t)
	idC := launch(t, cont, "ferret", 0, 0)
	for c := 1; c < 6; c++ {
		prog := workload.MustProgram(workload.MustByName("bwaves"))
		if _, err := cont.Launch("bwaves", prog, c, 0); err != nil {
			t.Fatal(err)
		}
	}
	timesC := runUntilCompletions(t, cont, idC, 3, 30*time.Second)
	execCont := (timesC[2] - timesC[1]).Seconds()
	mpkiCont := cont.Counters().Task(idC).MPKI()

	if execCont < execAlone*1.15 {
		t.Errorf("contention barely slowed ferret: alone %.3fs, contended %.3fs", execAlone, execCont)
	}
	if execCont > execAlone*3.5 {
		t.Errorf("contention implausibly severe: alone %.3fs, contended %.3fs", execAlone, execCont)
	}
	if mpkiCont < mpkiAlone*1.3 {
		t.Errorf("contention should raise MPKI: alone %.3f, contended %.3f", mpkiAlone, mpkiCont)
	}
}

func TestDVFSThrottlingSlowsTask(t *testing.T) {
	fast := newTestMachine(t)
	idF := launch(t, fast, "fluidanimate", 0, 0)
	tF := runUntilCompletions(t, fast, idF, 2, 10*time.Second)
	execF := (tF[1] - tF[0]).Seconds()

	slow := newTestMachine(t)
	idS := launch(t, slow, "fluidanimate", 0, 0)
	if err := slow.SetFreqLevel(0, 0); err != nil { // 1.2 GHz
		t.Fatal(err)
	}
	tS := runUntilCompletions(t, slow, idS, 2, 10*time.Second)
	execS := (tS[1] - tS[0]).Seconds()

	// Compute-bound task: 2.0/1.2 = 1.67× slowdown expected, minus the
	// constant memory part.
	if execS < execF*1.3 || execS > execF*1.8 {
		t.Errorf("DVFS slowdown = %.2f×, want ~1.3–1.8×", execS/execF)
	}
}

func TestPauseStopsProgress(t *testing.T) {
	m := newTestMachine(t)
	id := launch(t, m, "ferret", 0, 0)
	run(m, 50*time.Millisecond)
	before := m.Counters().Task(id).Instructions
	if before == 0 {
		t.Fatal("task should have progressed")
	}
	if err := m.Pause(id); err != nil {
		t.Fatal(err)
	}
	if p, _ := m.Paused(id); !p {
		t.Error("Paused should report true")
	}
	run(m, 100*time.Millisecond)
	if m.Counters().Task(id).Instructions != before {
		t.Error("paused task should not progress")
	}
	if err := m.Resume(id); err != nil {
		t.Fatal(err)
	}
	run(m, 150*time.Millisecond)
	if m.Counters().Task(id).Instructions <= before {
		t.Error("resumed task should progress")
	}
}

func TestPausingBGRemovesInterference(t *testing.T) {
	m := newTestMachine(t)
	fg := launch(t, m, "streamcluster", 0, 0)
	var bgs []int
	for c := 1; c < 6; c++ {
		prog := workload.MustProgram(workload.MustByName("lbm"))
		id, err := m.Launch("lbm", prog, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		bgs = append(bgs, id)
	}
	t1 := runUntilCompletions(t, m, fg, 2, 30*time.Second)
	contended := (t1[1] - t1[0]).Seconds()
	for _, id := range bgs {
		if err := m.Pause(id); err != nil {
			t.Fatal(err)
		}
	}
	t2 := runUntilCompletions(t, m, fg, 2, time.Minute)
	relieved := (t2[1] - t2[0]).Seconds()
	if relieved > contended*0.85 {
		t.Errorf("pausing all BG should speed FG: contended %.3fs, relieved %.3fs", contended, relieved)
	}
}

func TestOverheadChargingStealsTime(t *testing.T) {
	base := newTestMachine(t)
	idB := launch(t, base, "namd", 0, 0)
	run(base, 200*time.Millisecond)
	instrBase := base.Counters().Task(idB).Instructions

	loaded := newTestMachine(t)
	idL := launch(t, loaded, "namd", 0, 0)
	// Steal 100µs every 5ms ≈ 2% of the core.
	tick := sim.MustTicker(5 * time.Millisecond)
	for loaded.Now() < sim.Time(200*time.Millisecond) {
		loaded.StepN(1)
		if tick.Fire(loaded.Now()) {
			if err := loaded.ChargeOverhead(0, 100*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	instrLoaded := loaded.Counters().Task(idL).Instructions
	ratio := instrLoaded / instrBase
	if ratio > 0.995 || ratio < 0.95 {
		t.Errorf("overhead theft ratio = %.4f, want ~0.98", ratio)
	}
	if err := loaded.ChargeOverhead(0, -time.Second); err == nil {
		t.Error("negative overhead should error")
	}
	if err := loaded.ChargeOverhead(99, time.Second); err == nil {
		t.Error("bad core should error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, float64) {
		m := newTestMachine(t)
		fg := launch(t, m, "ferret", 0, 0)
		for c := 1; c < 4; c++ {
			prog := workload.MustProgram(workload.MustByName("rs"))
			if _, err := m.Launch("rs", prog, c, 0); err != nil {
				t.Fatal(err)
			}
		}
		times := runUntilCompletions(t, m, fg, 3, 30*time.Second)
		return times[2], m.Counters().Total().Instructions
	}
	t1, i1 := run()
	t2, i2 := run()
	if t1 != t2 || i1 != i2 {
		t.Errorf("same seed must reproduce exactly: (%v,%g) vs (%v,%g)", t1, i1, t2, i2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) sim.Time {
		cfg := DefaultConfig()
		cfg.Seed = seed
		m := MustNew(cfg)
		prog := workload.MustProgram(workload.MustByName("ferret"))
		fg, err := m.Launch("ferret", prog, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		bg := workload.MustProgram(workload.MustByName("rs"))
		if _, err := m.Launch("rs", bg, 1, 0); err != nil {
			t.Fatal(err)
		}
		return runUntilCompletions(t, m, fg, 2, 30*time.Second)[1]
	}
	if run(1) == run(99) {
		t.Error("different seeds should perturb completion times")
	}
}

func TestFreqResidencyAccounting(t *testing.T) {
	m := newTestMachine(t)
	launch(t, m, "namd", 0, 0)
	run(m, 10*time.Millisecond)
	if err := m.SetFreqLevel(0, 0); err != nil {
		t.Fatal(err)
	}
	run(m, 30*time.Millisecond)
	res, err := m.FreqResidency(0)
	if err != nil {
		t.Fatal(err)
	}
	if res[8] != 10*time.Millisecond {
		t.Errorf("residency at max = %v, want 10ms", res[8])
	}
	if res[0] != 20*time.Millisecond {
		t.Errorf("residency at min = %v, want 20ms", res[0])
	}
	if _, err := m.FreqResidency(-1); err == nil {
		t.Error("bad core should error")
	}
}

func TestSetProgramSwapsWorkload(t *testing.T) {
	m := newTestMachine(t)
	id := launch(t, m, "lbm", 0, 0)
	next := workload.MustProgram(workload.MustByName("namd"))
	if err := m.SetProgram(id, next); err != nil {
		t.Fatal(err)
	}
	if p := m.tasks[id].program; p != next {
		t.Errorf("program after swap = %s", p.Benchmark().Name)
	}
	if err := m.SetProgram(id, nil); err == nil {
		t.Error("nil program should error")
	}
}

func TestMemoryUtilizationUnderLoad(t *testing.T) {
	m := newTestMachine(t)
	for c := 0; c < 6; c++ {
		prog := workload.MustProgram(workload.MustByName("lbm"))
		if _, err := m.Launch("lbm", prog, c, 0); err != nil {
			t.Fatal(err)
		}
	}
	run(m, 500*time.Millisecond)
	u := m.memory.LastUtilization()
	if u < 0.3 {
		t.Errorf("six lbm streamers should load memory: U = %.3f", u)
	}
	empty := newTestMachine(t)
	run(empty, 10*time.Millisecond)
	if empty.memory.LastUtilization() != 0 {
		t.Errorf("idle machine utilization = %g", empty.memory.LastUtilization())
	}
}

func TestRunCallback(t *testing.T) {
	m := newTestMachine(t)
	launch(t, m, "fluidanimate", 0, 0)
	steps := 0
	for m.Now() < sim.Time(time.Millisecond) {
		_, n := m.StepN(m.QuantaUntil(sim.Time(time.Millisecond)))
		steps += n
	}
	want := int(time.Millisecond / m.Config().Quantum)
	if steps != want {
		t.Errorf("StepN reported %d quanta over 1ms, want %d", steps, want)
	}
}

func TestSetClassMovesTask(t *testing.T) {
	m := newTestMachine(t)
	cl := m.LLC().DefineClass()
	if err := m.LLC().SetPartition(map[cache.ClassID]int{0: 10, cl: 10}); err != nil {
		t.Fatal(err)
	}
	id := launch(t, m, "ferret", 0, 0)
	// Warm in class 0.
	run(m, 200*time.Millisecond)
	// The hit rate over a working set larger than the cache grows strictly
	// with the task's occupancy, so it reads the occupancy back.
	occupancy := func() float64 { return m.LLC().HitRateRef(m.LLC().Ref(id), 1<<30, 1) }
	before := occupancy()
	if before <= 0 {
		t.Fatal("no occupancy accrued")
	}
	if err := m.LLC().Register(id, cl); err != nil {
		t.Fatal(err)
	}
	// Occupancy persists across the class move (data does not vanish).
	if got := occupancy(); got != before {
		t.Errorf("occupancy changed on class move: %g -> %g", before, got)
	}
	if err := m.LLC().Register(id, cache.ClassID(77)); err == nil {
		t.Error("unknown class should error")
	}
}
