package perf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleArithmetic(t *testing.T) {
	a := Sample{Instructions: 100, Cycles: 200, LLCAccesses: 10, LLCMisses: 5}
	b := Sample{Instructions: 40, Cycles: 50, LLCAccesses: 4, LLCMisses: 1}
	d := Sample{Instructions: 60, Cycles: 150, LLCAccesses: 6, LLCMisses: 4}
	if s := b.Add(d); s != a {
		t.Errorf("Add = %+v, want %+v", s, a)
	}
}

func TestSampleAddSubRoundTrip(t *testing.T) {
	f := func(i1, c1, a1, m1, i2, c2, a2, m2 float64) bool {
		a := Sample{i1, c1, a1, m1}
		b := Sample{i2, c2, a2, m2}
		sum := a.Add(b)
		rt := Sample{sum.Instructions - b.Instructions, sum.Cycles - b.Cycles, sum.LLCAccesses - b.LLCAccesses, sum.LLCMisses - b.LLCMisses}
		const tol = 1e-6
		near := func(x, y float64) bool {
			d := x - y
			if d < 0 {
				d = -d
			}
			scale := 1.0
			if x > scale {
				scale = x
			}
			if -x > scale {
				scale = -x
			}
			return d <= tol*scale
		}
		return near(rt.Instructions, a.Instructions) && near(rt.Cycles, a.Cycles) &&
			near(rt.LLCAccesses, a.LLCAccesses) && near(rt.LLCMisses, a.LLCMisses)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMPKIAndIPC(t *testing.T) {
	s := Sample{Instructions: 2000, Cycles: 4000, LLCMisses: 3}
	if got := s.MPKI(); got != 1.5 {
		t.Errorf("MPKI = %g, want 1.5", got)
	}
	var zero Sample
	if zero.MPKI() != 0 {
		t.Error("zero sample should have zero MPKI")
	}
	if !strings.Contains(s.String(), "mpki") {
		t.Error("String should mention mpki")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero cores should error")
	}
	c := MustNew(6)
	if len(c.cores) != 6 {
		t.Errorf("cores = %d", len(c.cores))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

func TestChargeAccumulates(t *testing.T) {
	c := MustNew(2)
	h1, h2 := c.Handle(1), c.Handle(2)
	d := Sample{Instructions: 10, Cycles: 20, LLCAccesses: 2, LLCMisses: 1}
	c.ChargeRef(h1, 0, d)
	c.ChargeRef(h1, 0, d)
	c.ChargeRef(h2, 1, d)
	if got := c.Task(1); got.Instructions != 20 {
		t.Errorf("Task(1) = %+v", got)
	}
	if got := c.Task(2); got.Instructions != 10 {
		t.Errorf("Task(2) = %+v", got)
	}
	if got := c.Task(99); got != (Sample{}) {
		t.Errorf("unknown task = %+v", got)
	}
	core0, err := c.Core(0)
	if err != nil || core0.Instructions != 20 {
		t.Errorf("Core(0) = %+v, %v", core0, err)
	}
	if got := c.Total(); got.Instructions != 30 {
		t.Errorf("Total = %+v", got)
	}
}

func TestChargeInvalidCore(t *testing.T) {
	c := MustNew(2)
	if _, err := c.Core(2); err == nil {
		t.Error("Core(2) should error")
	}
	if _, err := c.Core(5); err == nil {
		t.Error("Core(5) should error")
	}
	if _, err := c.Core(-1); err == nil {
		t.Error("Core(-1) should error")
	}
}

// TestChargeRefMatchesCharge pins the handle-based charging path (what the
// machine charges through) to plain accumulation: the same sequence of
// deltas, summed independently per task, per core and in total, must equal
// the task, core and total counters exactly.
func TestChargeRefMatchesCharge(t *testing.T) {
	c := MustNew(3)
	h1, h2 := c.Handle(1), c.Handle(2)

	// Handle creates the task; it must still read as zero until charged.
	if got := c.Task(1); got != (Sample{}) {
		t.Errorf("fresh Handle task reads %+v, want zero", got)
	}

	deltas := []struct {
		task, core int
		d          Sample
	}{
		{1, 0, Sample{Instructions: 100, Cycles: 250, LLCAccesses: 10, LLCMisses: 4}},
		{2, 1, Sample{Instructions: 70, Cycles: 300, LLCAccesses: 25, LLCMisses: 19}},
		{1, 0, Sample{Instructions: 55.5, Cycles: 125.25, LLCAccesses: 3.125, LLCMisses: 0.5}},
		{1, 2, Sample{Instructions: 1e9, Cycles: 2e9, LLCAccesses: 1e7, LLCMisses: 3e6}},
		{2, 1, Sample{}},
	}
	wantTask := map[int]Sample{}
	wantCore := make([]Sample, 3)
	var wantTotal Sample
	for _, ch := range deltas {
		h := h1
		if ch.task == 2 {
			h = h2
		}
		c.ChargeRef(h, ch.core, ch.d)
		wantTask[ch.task] = wantTask[ch.task].Add(ch.d)
		wantCore[ch.core] = wantCore[ch.core].Add(ch.d)
		wantTotal = wantTotal.Add(ch.d)
	}
	for task := 1; task <= 2; task++ {
		if got := c.Task(task); got != wantTask[task] {
			t.Errorf("task %d: ChargeRef %+v, want %+v", task, got, wantTask[task])
		}
	}
	for core := 0; core < 3; core++ {
		got, err := c.Core(core)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantCore[core] {
			t.Errorf("core %d: ChargeRef %+v, want %+v", core, got, wantCore[core])
		}
	}
	if got := c.Total(); got != wantTotal {
		t.Errorf("Total = %+v, want %+v", got, wantTotal)
	}

	// A Handle resolved after charges is the same accumulator and sees the
	// accumulated state.
	if c.Handle(1) != h1 {
		t.Error("re-resolved handle is a different accumulator")
	}
	if got := *c.Handle(1); got != c.Task(1) {
		t.Errorf("re-resolved handle reads %+v, want %+v", got, c.Task(1))
	}
}
