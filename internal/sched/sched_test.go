package sched

import (
	"testing"
	"time"

	"dirigent/internal/machine"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

func bench(t *testing.T, name string) *workload.Benchmark {
	t.Helper()
	return workload.MustByName(name)
}

func singleBG(t *testing.T, name string) BGSpec {
	t.Helper()
	return BGSpec{Bench: bench(t, name)}
}

func newColo(t *testing.T, fg []string, bg []BGSpec) *Colocation {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig())
	var fgb []*workload.Benchmark
	for _, n := range fg {
		fgb = append(fgb, bench(t, n))
	}
	c, err := New(m, fgb, bg, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fiveBG(t *testing.T, name string) []BGSpec {
	t.Helper()
	out := make([]BGSpec, 5)
	for i := range out {
		out[i] = singleBG(t, name)
	}
	return out
}

func TestBGSpec(t *testing.T) {
	s := singleBG(t, "bwaves")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.IsRotate() || s.Name() != "bwaves" {
		t.Errorf("spec = %+v", s)
	}
	p := BGSpec{Pair: [2]*workload.Benchmark{bench(t, "lbm"), bench(t, "namd")}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.IsRotate() || p.Name() != "lbm+namd" {
		t.Errorf("pair spec = %+v", p)
	}
	if err := (BGSpec{}).Validate(); err == nil {
		t.Error("empty spec should error")
	}
	if (BGSpec{}).Name() != "<empty>" {
		t.Error("empty spec name")
	}
	both := BGSpec{Bench: bench(t, "bwaves"), Pair: [2]*workload.Benchmark{bench(t, "lbm"), bench(t, "namd")}}
	if err := both.Validate(); err == nil {
		t.Error("spec with both should error")
	}
	half := BGSpec{Pair: [2]*workload.Benchmark{bench(t, "lbm"), nil}}
	if err := half.Validate(); err == nil {
		t.Error("half pair should error")
	}
}

func TestNewValidation(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	fg := []*workload.Benchmark{bench(t, "ferret")}
	bg5 := make([]BGSpec, 5)
	for i := range bg5 {
		bg5[i] = singleBG(t, "bwaves")
	}
	if _, err := New(nil, fg, bg5, Options{}); err == nil {
		t.Error("nil machine should error")
	}
	if _, err := New(m, nil, bg5, Options{}); err == nil {
		t.Error("no FG should error")
	}
	if _, err := New(m, fg, append(bg5, bg5[0]), Options{}); err == nil {
		t.Error("task count above core count should error")
	}
	// Fewer tasks than cores is allowed (standalone runs).
	m2 := machine.MustNew(machine.DefaultConfig())
	if _, err := New(m2, fg, nil, Options{}); err != nil {
		t.Errorf("standalone FG should be allowed: %v", err)
	}
	// BG benchmark in FG slot.
	badFG := []*workload.Benchmark{bench(t, "bwaves")}
	if _, err := New(m, badFG, bg5, Options{}); err == nil {
		t.Error("BG benchmark as FG should error")
	}
	// FG benchmark in BG slot.
	badBG := append([]BGSpec{}, bg5[:4]...)
	badBG = append(badBG, singleBG(t, "ferret"))
	if _, err := New(m, fg, badBG, Options{}); err == nil {
		t.Error("FG benchmark as BG should error")
	}
	// Invalid spec.
	badBG2 := append([]BGSpec{}, bg5[:4]...)
	badBG2 = append(badBG2, BGSpec{})
	if _, err := New(m, fg, badBG2, Options{}); err == nil {
		t.Error("empty BG spec should error")
	}
}

func TestPlacement(t *testing.T) {
	c := newColo(t, []string{"ferret"}, fiveBG(t, "bwaves"))
	if len(c.FG()) != 1 || len(c.BG()) != 5 {
		t.Fatalf("placement: %d FG, %d BG", len(c.FG()), len(c.BG()))
	}
	if c.FG()[0].Core != 0 {
		t.Errorf("FG core = %d", c.FG()[0].Core)
	}
	for i, w := range c.BG() {
		if w.Core != i+1 {
			t.Errorf("BG %d core = %d, want %d", i, w.Core, i+1)
		}
	}
	if c.RuntimeCore() != 1 {
		t.Errorf("RuntimeCore = %d, want first BG core", c.RuntimeCore())
	}
	if c.Machine() == nil {
		t.Error("Machine accessor nil")
	}
	if c.FGClass() != 0 || c.BGClass() != 0 {
		t.Error("default classes should be 0")
	}
}

func TestExecutionsRecorded(t *testing.T) {
	c := newColo(t, []string{"fluidanimate"}, fiveBG(t, "namd"))
	var events []Execution
	c.OnComplete(func(stream int, e Execution) {
		if stream != 0 {
			t.Errorf("stream index = %d", stream)
		}
		events = append(events, e)
	})
	if err := c.RunExecutions(3, sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	f := c.FG()[0]
	if f.Completed() < 3 {
		t.Fatalf("Completed = %d", f.Completed())
	}
	if len(events) != f.Completed() {
		t.Errorf("callback count %d != completions %d", len(events), f.Completed())
	}
	for i, e := range f.execs {
		if e.Duration <= 0 {
			t.Errorf("exec %d duration %v", i, e.Duration)
		}
		if i > 0 && e.End <= f.execs[i-1].End {
			t.Errorf("exec %d times inverted: %v..%v", i, f.execs[i-1].End, e.End)
		}
		if e.Instructions <= 0 {
			t.Errorf("exec %d instructions %g", i, e.Instructions)
		}
		if e.LLCMisses < 0 {
			t.Errorf("exec %d misses %g", i, e.LLCMisses)
		}
		// Each execution retires the benchmark's instruction budget
		// (within one quantum of slop).
		want := f.Bench.TotalInstructions()
		if e.Instructions < want*0.99 || e.Instructions > want*1.01 {
			t.Errorf("exec %d retired %g instructions, want ~%g", i, e.Instructions, want)
		}
	}
	if got := f.Durations(); len(got) != f.Completed() {
		t.Errorf("Durations len = %d", len(got))
	}
	if f.lastStart != f.execs[f.Completed()-1].End {
		t.Error("the in-flight execution should start at the last completion time")
	}
}

func TestBGInstructionsGrow(t *testing.T) {
	c := newColo(t, []string{"ferret"}, fiveBG(t, "bwaves"))
	for c.m.Now() < sim.Time(100*time.Millisecond) {
		c.Advance(sim.Time(100 * time.Millisecond))
	}
	v1 := c.BGInstructions()
	if v1 <= 0 {
		t.Fatal("BG instructions should accrue")
	}
	for c.m.Now() < sim.Time(200*time.Millisecond) {
		c.Advance(sim.Time(200 * time.Millisecond))
	}
	if c.BGInstructions() <= v1 {
		t.Error("BG instructions should keep growing")
	}
}

func TestRotateOnFGCompletion(t *testing.T) {
	pair := BGSpec{Pair: [2]*workload.Benchmark{bench(t, "lbm"), bench(t, "namd")}}
	bg := []BGSpec{pair, pair, pair, pair, pair}
	c := newColo(t, []string{"fluidanimate"}, bg)
	switches := switchSink{}
	c.Machine().SetRecorder(switches)
	if err := c.RunExecutions(10, sim.Time(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Every completion rotates every worker (rotator internals are
	// validated in workload tests): the program the machine switched each
	// BG task to last must be the rotator's latest pick.
	for _, w := range c.BG() {
		if pick := w.rotator.Program().Benchmark().Name; switches[w.Task] != pick {
			t.Errorf("machine switched task %d to %q last, rotator picked %s", w.Task, switches[w.Task], pick)
		}
	}
}

// switchSink keeps the benchmark of each task's last program switch.
type switchSink map[int]string

func (s switchSink) Enabled(k telemetry.Kind) bool { return k == telemetry.KindTaskSwitch }

func (s switchSink) Record(ev telemetry.Event) { s[ev.Task] = ev.Name }

func TestRotationChangesInterference(t *testing.T) {
	// A rotate pair with wildly different members (lbm vs namd) must yield
	// higher FG execution-time variance than a plain namd BG.
	pair := BGSpec{Pair: [2]*workload.Benchmark{bench(t, "lbm"), bench(t, "namd")}}
	rotate := newColo(t, []string{"ferret"}, []BGSpec{pair, pair, pair, pair, pair})
	if err := rotate.RunExecutions(25, sim.Time(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	plain := newColo(t, []string{"ferret"}, fiveBG(t, "namd"))
	if err := plain.RunExecutions(25, sim.Time(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	std := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		v := 0.0
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return v / float64(len(xs))
	}
	sRot := std(rotate.FG()[0].Durations()[5:])
	sPlain := std(plain.FG()[0].Durations()[5:])
	if sRot < sPlain*4 {
		t.Errorf("rotate variance %g should dwarf plain-namd variance %g", sRot, sPlain)
	}
}

func TestMultipleFGStreams(t *testing.T) {
	c := newColo(t, []string{"fluidanimate", "raytrace", "bodytrack"}, fiveBG(t, "bwaves")[:3])
	if err := c.RunExecutions(2, sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	for i, f := range c.FG() {
		if f.Completed() < 2 {
			t.Errorf("stream %d completed %d", i, f.Completed())
		}
	}
}
