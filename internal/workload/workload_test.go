package workload

import (
	"testing"
	"testing/quick"
)

func validPhase() Phase {
	return Phase{Name: "p", Instructions: 1e8, BaseCPI: 0.6, APKI: 5, WSSBytes: 1 << 20, Locality: 0.8}
}

func TestPhaseValidate(t *testing.T) {
	p := validPhase()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Phase){
		func(p *Phase) { p.Instructions = 0 },
		func(p *Phase) { p.Instructions = -1 },
		func(p *Phase) { p.BaseCPI = 0 },
		func(p *Phase) { p.APKI = -1 },
		func(p *Phase) { p.WSSBytes = -1 },
		func(p *Phase) { p.Locality = -0.1 },
		func(p *Phase) { p.Locality = 1.1 },
	}
	for i, mutate := range bad {
		q := validPhase()
		mutate(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBenchmarkValidate(t *testing.T) {
	b := &Benchmark{Name: "x", Kind: Foreground, Phases: []Phase{validPhase()}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Benchmark{Kind: Foreground, Phases: []Phase{validPhase()}}).Validate(); err == nil {
		t.Error("missing name should error")
	}
	if err := (&Benchmark{Name: "x"}).Validate(); err == nil {
		t.Error("no phases should error")
	}
	bad := &Benchmark{Name: "x", Phases: []Phase{{Name: "p"}}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid phase should propagate")
	}
	neg := &Benchmark{Name: "x", Phases: []Phase{validPhase()}, CPIJitter: -0.1}
	if err := neg.Validate(); err == nil {
		t.Error("negative jitter should error")
	}
}

func TestKindString(t *testing.T) {
	if Foreground.String() != "FG" || Background.String() != "BG" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestTotalInstructions(t *testing.T) {
	b := &Benchmark{Name: "x", Phases: []Phase{
		{Name: "a", Instructions: 100, BaseCPI: 1, Locality: 0.5},
		{Name: "b", Instructions: 200, BaseCPI: 1, Locality: 0.5},
	}}
	if got := b.TotalInstructions(); got != 300 {
		t.Errorf("TotalInstructions = %g", got)
	}
}

func TestProgramPhaseTransitions(t *testing.T) {
	b := &Benchmark{Name: "x", Kind: Foreground, Phases: []Phase{
		{Name: "a", Instructions: 100, BaseCPI: 1, Locality: 0.5},
		{Name: "b", Instructions: 200, BaseCPI: 1, Locality: 0.5},
	}}
	p := MustProgram(b)
	if p.Phase().Name != "a" {
		t.Errorf("initial phase = %s", p.Phase().Name)
	}
	if done := p.Advance(99); done {
		t.Error("should not complete at 99/300")
	}
	if p.Phase().Name != "a" {
		t.Errorf("phase at 99 = %s", p.Phase().Name)
	}
	p.Advance(1)
	if p.Phase().Name != "b" {
		t.Errorf("phase at 100 = %s", p.Phase().Name)
	}
	if p.executed != 100 || (p.total-p.executed) != 200 {
		t.Errorf("executed=%g remaining=%g", p.executed, (p.total - p.executed))
	}
	if done := p.Advance(200); !done {
		t.Error("FG should complete at 300/300")
	}
	if p.executed != 0 {
		t.Errorf("after completion Executed = %g, want wrap to 0", p.executed)
	}
}

func TestProgramOvershootCarries(t *testing.T) {
	b := &Benchmark{Name: "x", Kind: Foreground, Phases: []Phase{
		{Name: "a", Instructions: 100, BaseCPI: 1, Locality: 0.5},
	}}
	p := MustProgram(b)
	if done := p.Advance(130); !done {
		t.Fatal("should complete")
	}
	if p.executed != 30 {
		t.Errorf("overshoot should carry: Executed = %g, want 30", p.executed)
	}
}

func TestBackgroundProgramWraps(t *testing.T) {
	b := &Benchmark{Name: "x", Kind: Background, Phases: []Phase{
		{Name: "a", Instructions: 100, BaseCPI: 1, Locality: 0.5},
	}}
	p := MustProgram(b)
	for i := 0; i < 10; i++ {
		if done := p.Advance(60); done {
			t.Fatal("BG must never report completion")
		}
	}
	if p.executed >= 100 {
		t.Errorf("BG executed should stay within pass: %g", p.executed)
	}
}

func TestProgramNegativeAdvance(t *testing.T) {
	b := &Benchmark{Name: "x", Kind: Foreground, Phases: []Phase{validPhase()}}
	p := MustProgram(b)
	p.Advance(-50)
	if p.executed != 0 {
		t.Errorf("negative advance should be ignored: %g", p.executed)
	}
}

func TestNewProgramRejectsInvalid(t *testing.T) {
	if _, err := NewProgram(&Benchmark{Name: "x"}); err == nil {
		t.Error("invalid benchmark should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustProgram should panic on invalid benchmark")
		}
	}()
	MustProgram(&Benchmark{})
}

func TestProgramExecutedNeverExceedsTotal(t *testing.T) {
	f := func(seed uint64) bool {
		b := &Benchmark{Name: "x", Kind: Background, Phases: []Phase{
			{Name: "a", Instructions: 500, BaseCPI: 1, Locality: 0.5},
			{Name: "b", Instructions: 300, BaseCPI: 1, Locality: 0.5},
		}}
		p := MustProgram(b)
		s := seed | 1
		for i := 0; i < 200; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			p.Advance(float64(s % 400))
			if p.executed < 0 || p.executed >= 800 {
				return false
			}
			// Phase must always be resolvable.
			if p.Phase() == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetOffset(t *testing.T) {
	b := &Benchmark{Name: "x", Kind: Background, Phases: []Phase{
		{Name: "a", Instructions: 100, BaseCPI: 1, Locality: 0.5},
		{Name: "b", Instructions: 200, BaseCPI: 1, Locality: 0.5},
	}}
	p := MustProgram(b)
	p.SetOffset(150)
	if p.executed != 150 {
		t.Errorf("Executed = %g", p.executed)
	}
	if p.Phase().Name != "b" {
		t.Errorf("phase = %s", p.Phase().Name)
	}
	// Wraps modulo total.
	p.SetOffset(650)
	if p.executed != 50 {
		t.Errorf("Executed after wrap = %g", p.executed)
	}
	// Negative clamps to 0.
	p.SetOffset(-10)
	if p.executed != 0 {
		t.Errorf("Executed after negative = %g", p.executed)
	}
}

func TestSetOffsetStaysInRange(t *testing.T) {
	f := func(seed uint64) bool {
		b := &Benchmark{Name: "x", Kind: Background, Phases: []Phase{
			{Name: "a", Instructions: 777, BaseCPI: 1, Locality: 0.5},
		}}
		p := MustProgram(b)
		s := seed | 1
		for i := 0; i < 50; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			p.SetOffset(float64(s % 10000))
			if p.executed < 0 || p.executed >= 777 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProgramPhaseCache pins the cached phase lookup: repeated calls inside
// one phase return the same phase without a rescan moving the cache window,
// and a move by Advance, SetOffset or a rewind invalidates the window so the
// next call rescans to the right phase.
func TestProgramPhaseCache(t *testing.T) {
	b := &Benchmark{Name: "x", Kind: Background, Phases: []Phase{
		{Name: "a", Instructions: 100, BaseCPI: 1, APKI: 1, WSSBytes: 1 << 20, Locality: 0.5},
		{Name: "b", Instructions: 200, BaseCPI: 1, APKI: 1, WSSBytes: 1 << 20, Locality: 0.5},
		{Name: "c", Instructions: 300, BaseCPI: 1, APKI: 1, WSSBytes: 1 << 20, Locality: 0.5},
	}}
	p := MustProgram(b)

	// First call populates the cache for phase a: window [0, 100).
	if ph := p.Phase(); ph.Name != "a" {
		t.Fatalf("at 0: phase %s, want a", ph.Name)
	}
	if p.phaseStart != 0 || p.phaseEnd != 100 {
		t.Fatalf("cache window [%g, %g), want [0, 100)", p.phaseStart, p.phaseEnd)
	}
	// Calls within the window hit the cache (window unchanged, same phase).
	p.Advance(50)
	if ph := p.Phase(); ph.Name != "a" || p.phase != 0 {
		t.Fatalf("at 50: phase %s", ph.Name)
	}

	// Crossing into phase b invalidates and rescans.
	p.Advance(75) // executed = 125
	if ph := p.Phase(); ph.Name != "b" {
		t.Fatalf("at 125: phase %s, want b", ph.Name)
	}
	if p.phaseStart != 100 || p.phaseEnd != 300 {
		t.Fatalf("cache window [%g, %g), want [100, 300)", p.phaseStart, p.phaseEnd)
	}

	// SetOffset far ahead: stale window must not satisfy the lookup.
	p.SetOffset(450)
	if ph := p.Phase(); ph.Name != "c" {
		t.Fatalf("after SetOffset(450): phase %s, want c", ph.Name)
	}

	// Rewinding to the start: the c-window cache cannot claim position 0.
	p.executed = 0
	if ph := p.Phase(); ph.Name != "a" {
		t.Fatalf("after rewind: phase %s, want a", ph.Name)
	}

	// Background wrap: executed returns below the window start.
	p.SetOffset(550)
	if ph := p.Phase(); ph.Name != "c" {
		t.Fatalf("at 550: phase %s, want c", ph.Name)
	}
	p.Advance(100) // wraps to 50
	if ph := p.Phase(); ph.Name != "a" {
		t.Fatalf("after wrap to 50: phase %s, want a", ph.Name)
	}

	// Result must always match an uncached rescan at every position.
	fresh := MustProgram(b)
	for pos := 0.0; pos < 600; pos += 37 {
		p.SetOffset(pos)
		fresh.SetOffset(pos)
		fresh.phaseStart, fresh.phaseEnd = 0, 0 // force rescan
		if got, want := p.Phase().Name, fresh.Phase().Name; got != want {
			t.Errorf("at %g: cached %s, rescan %s", pos, got, want)
		}
	}
}
