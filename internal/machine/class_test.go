package machine

import (
	"math"
	"reflect"
	"testing"

	"dirigent/internal/mem"
	"dirigent/internal/workload"
)

func TestClassRegistry(t *testing.T) {
	names := ClassNames()
	want := []string{"biglittle", "dual-socket", "quad-low", "xeon-e5"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ClassNames() = %v, want %v", names, want)
	}
	for _, n := range names {
		cfg, err := ClassConfig(n)
		if err != nil {
			t.Fatalf("ClassConfig(%q): %v", n, err)
		}
		if _, err := New(cfg); err != nil {
			t.Errorf("class %q config does not build: %v", n, err)
		}
	}
	if _, err := ClassConfig("warehouse-42"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestDefaultClassIsDefaultConfig(t *testing.T) {
	for _, name := range []string{"", DefaultClass} {
		cfg, err := ClassConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, DefaultConfig()) {
			t.Fatalf("ClassConfig(%q) != DefaultConfig()", name)
		}
	}
}

func TestCoreSetValidation(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"count sum mismatch", func(c *Config) { c.CoreSets = []CoreSet{{Count: 4}} }},
		{"zero count", func(c *Config) { c.CoreSets = []CoreSet{{Count: 0}, {Count: 6}} }},
		{"negative freq scale", func(c *Config) { c.CoreSets = []CoreSet{{Count: 6, FreqScale: -1}} }},
		{"negative ipc scale", func(c *Config) { c.CoreSets = []CoreSet{{Count: 6, IPCScale: -0.5}} }},
		{"socket out of range", func(c *Config) { c.CoreSets = []CoreSet{{Count: 6, Socket: 1}} }},
	}
	for _, c := range cases {
		cfg := base
		c.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid core sets accepted", c.name)
		}
	}
}

// TestHomogeneousCoreSetByteIdentity pins the tentpole's compatibility
// contract at the machine level: an explicit all-default core set runs the
// exact same float operations as no core sets at all.
func TestHomogeneousCoreSetByteIdentity(t *testing.T) {
	build := func(sets []CoreSet) *Machine {
		cfg := DefaultConfig()
		cfg.CoreSets = sets
		m := MustNew(cfg)
		fg := workload.MustProgram(workload.MustByName("ferret"))
		bg := workload.MustProgram(workload.MustByName("rs"))
		if _, err := m.Launch("fg", fg, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Launch("bg", bg, 3, 0); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := build(nil)
	b := build([]CoreSet{{Count: 6, FreqScale: 1, IPCScale: 1, Socket: 0}})
	for i := 0; i < 5000; i++ {
		a.StepN(1)
		b.StepN(1)
		if ua, ub := a.memory.LastUtilization(), b.memory.LastUtilization(); ua != ub {
			t.Fatalf("step %d: utilization diverged: %v vs %v", i, ua, ub)
		}
	}
	ca, cb := a.Counters().Task(1), b.Counters().Task(1)
	if ca.Instructions != cb.Instructions || ca.LLCMisses != cb.LLCMisses {
		t.Fatalf("counters diverged: %+v vs %+v", ca, cb)
	}
}

func TestHeterogeneousFrequencyAndIPC(t *testing.T) {
	cfg, err := ClassConfig("biglittle")
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(cfg)
	top := m.MaxFreqLevel()

	big, err := m.CoreMaxFreqGHz(0)
	if err != nil {
		t.Fatal(err)
	}
	little, err := m.CoreMaxFreqGHz(2)
	if err != nil {
		t.Fatal(err)
	}
	if big != 2.0 {
		t.Fatalf("big core nominal = %v, want 2.0", big)
	}
	if math.Abs(little-1.5) > 1e-12 {
		t.Fatalf("little core nominal = %v, want 1.5", little)
	}
	// Level indices are shared: both report the same level but different
	// effective clocks.
	fb, _ := m.FreqGHz(0)
	fl, _ := m.FreqGHz(2)
	lb, _ := m.FreqLevel(0)
	ll, _ := m.FreqLevel(2)
	if lb != top || ll != top {
		t.Fatalf("cores not at top level: %d, %d", lb, ll)
	}
	if fb <= fl {
		t.Fatalf("big core (%v GHz) not faster than little (%v GHz)", fb, fl)
	}

	// A compute-bound benchmark on a little core retires fewer
	// instructions per quantum than on a big core: both slower clock and
	// scaled-down IPC.
	prog := func() *workload.Program { return workload.MustProgram(workload.MustByName("namd")) }
	if _, err := m.Launch("big", prog(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Launch("little", prog(), 2, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		m.StepN(1)
	}
	bigInstr := m.Counters().Task(1).Instructions
	littleInstr := m.Counters().Task(2).Instructions
	// 0.75x clock * 0.6x IPC = 0.45x throughput for a purely core-bound
	// task; allow the memory-bound component some slack.
	ratio := littleInstr / bigInstr
	if ratio > 0.6 || ratio < 0.3 {
		t.Fatalf("little/big instruction ratio = %.3f, want ~0.45", ratio)
	}
}

// The step keeps each core's phase-only terms (APKI/1000, BaseCPI times the
// core's cpiScale, MLP) in the core's record and recomputes them only when
// the running phase pointer changes. Without jitter or LLC accesses a
// quantum retires exactly f·1e9·Δt / (BaseCPI·cpiScale) instructions, so a
// term that failed to follow the phase, the program or the core shows up
// as a wrong count.
func TestPhaseTermsFollowPhaseProgramAndCore(t *testing.T) {
	cfg, err := ClassConfig("biglittle")
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlowJitterSigma = 0
	m := MustNew(cfg)
	twoPhase := &workload.Benchmark{Name: "two-phase", Kind: workload.Foreground, Phases: []workload.Phase{
		{Name: "a", Instructions: 2e6, BaseCPI: 1},
		{Name: "b", Instructions: 1e9, BaseCPI: 2.5},
	}}
	third := &workload.Benchmark{Name: "third", Kind: workload.Foreground, Phases: []workload.Phase{
		{Name: "c", Instructions: 1e9, BaseCPI: 1.75},
	}}
	// One copy on a big core and one on a little core (0.75x clock, 0.6x
	// IPC): the two share phase pointers but not cpiScale.
	type run struct {
		id, core    int
		prog        *workload.Program
		phase       string // the phase the last quantum ran
		scale, want float64
	}
	runs := []*run{{core: 0, scale: 1}, {core: 2, scale: 1 / cfg.CoreSets[1].IPCScale}}
	for _, r := range runs {
		r.prog = workload.MustProgram(twoPhase)
		if r.id, err = m.Launch("fg", r.prog, r.core, 0); err != nil {
			t.Fatal(err)
		}
	}
	dtSec := cfg.Quantum.Seconds()
	seen := map[string]int{}
	step := func(quanta int) {
		for q := 0; q < quanta; q++ {
			for _, r := range runs {
				f, _ := m.FreqGHz(r.core)
				ph := r.prog.Phase()
				r.phase = ph.Name
				seen[ph.Name]++
				r.want += f * 1e9 * dtSec / (ph.BaseCPI * r.scale)
			}
			m.StepN(1)
			for _, r := range runs {
				if got := m.Counters().Task(r.id).Instructions; got != r.want {
					t.Fatalf("core %d, after a quantum of phase %q: %v instructions retired in all, want %v",
						r.core, r.phase, got, r.want)
				}
			}
		}
	}
	step(20) // both cores cross from phase a to phase b
	for _, r := range runs {
		r.prog = workload.MustProgram(third)
		if err := m.SetProgram(r.id, r.prog); err != nil {
			t.Fatal(err)
		}
	}
	step(5)
	if seen["a"] == 0 || seen["b"] == 0 || seen["c"] == 0 {
		t.Fatalf("quanta per phase %v: want every phase run", seen)
	}
}

func TestMultiSocketIsolation(t *testing.T) {
	cfg, err := ClassConfig("dual-socket")
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(cfg)
	if s := m.coreSocket[0]; s != 0 {
		t.Fatalf("core 0 socket = %d, want 0", s)
	}
	if s := m.coreSocket[4]; s != 1 {
		t.Fatalf("core 4 socket = %d, want 1", s)
	}
	// Saturate socket 0 with memory-bound tasks; socket 1 idles.
	for c := 0; c < 4; c++ {
		prog := workload.MustProgram(workload.MustByName("lbm"))
		if _, err := m.Launch("mem", prog, c, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		m.StepN(1)
	}
	u0 := m.memory.LastSocketUtilization(0)
	u1 := m.memory.LastSocketUtilization(1)
	if u0 < 0.5 {
		t.Fatalf("socket 0 utilization %.3f, want saturated", u0)
	}
	if u1 != 0 {
		t.Fatalf("socket 1 utilization %.3f, want 0 (isolated)", u1)
	}
	if got := m.memory.LastUtilization(); got != u0 {
		t.Fatalf("headline utilization %v != bottleneck socket %v", got, u0)
	}
}

// TestMultiSocketIsolationHelpsVictim runs a latency-sensitive task against
// memory hogs twice: hogs on the same socket, then hogs on the other
// socket. Cross-socket placement must remove the interference.
func TestMultiSocketIsolationHelpsVictim(t *testing.T) {
	run := func(hogCores []int) float64 {
		cfg, err := ClassConfig("dual-socket")
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(cfg)
		victim := workload.MustProgram(workload.MustByName("ferret"))
		id, err := m.Launch("victim", victim, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range hogCores {
			prog := workload.MustProgram(workload.MustByName("lbm"))
			if _, err := m.Launch("hog", prog, c, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3000; i++ {
			m.StepN(1)
		}
		return m.Counters().Task(id).Instructions
	}
	same := run([]int{1, 2, 3})
	cross := run([]int{5, 6, 7})
	if cross <= same*1.02 {
		t.Fatalf("cross-socket victim progress %.0f not better than same-socket %.0f", cross, same)
	}
}

func TestMemSocketValidation(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.Sockets = []mem.Socket{{PeakBandwidth: 1e9}, {PeakBandwidth: 0}}
	if _, err := mem.New(cfg); err == nil {
		t.Fatal("zero-bandwidth socket accepted")
	}
}

func TestQuadLowLadder(t *testing.T) {
	cfg, err := ClassConfig("quad-low")
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(cfg)
	if m.NumCores() != 4 {
		t.Fatalf("cores = %d, want 4", m.NumCores())
	}
	if m.MaxFreqLevel() != 4 {
		t.Fatalf("max level = %d, want 4 (5-level ladder)", m.MaxFreqLevel())
	}
	if f, _ := m.CoreMaxFreqGHz(0); f != 1.8 {
		t.Fatalf("top frequency = %v, want 1.8", f)
	}
}
