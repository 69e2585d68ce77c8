package sim

import (
	"testing"
	"time"
)

func TestNewClockValidation(t *testing.T) {
	if _, err := NewClock(0); err == nil {
		t.Error("zero quantum should error")
	}
	if _, err := NewClock(-time.Millisecond); err == nil {
		t.Error("negative quantum should error")
	}
	c, err := NewClock(DefaultQuantum)
	if err != nil {
		t.Fatal(err)
	}
	if c.Quantum() != DefaultQuantum {
		t.Errorf("Quantum = %v", c.Quantum())
	}
}

// testClock is NewClock for a quantum the test knows is valid.
func testClock(t *testing.T, quantum time.Duration) *Clock {
	t.Helper()
	c, err := NewClock(quantum)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClockAdvance(t *testing.T) {
	c := testClock(t, 100*time.Microsecond)
	if c.Now() != 0 {
		t.Errorf("fresh clock Now = %v", c.Now())
	}
	for i := 1; i <= 10; i++ {
		got := c.Advance()
		want := time.Duration(i) * 100 * time.Microsecond
		if got != want {
			t.Fatalf("Advance %d = %v, want %v", i, got, want)
		}
	}
	if _, err := c.AdvanceBy(50 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 1050*time.Microsecond {
		t.Errorf("Now = %v", c.Now())
	}
	if _, err := c.AdvanceBy(-time.Nanosecond); err == nil {
		t.Error("negative AdvanceBy should error")
	}
	c.Reset()
	if c.Now() != 0 {
		t.Error("Reset should zero the clock")
	}
}

func TestTickerFiresEveryPeriod(t *testing.T) {
	tk := MustTicker(5 * time.Millisecond)
	if tk.Period() != 5*time.Millisecond {
		t.Errorf("Period = %v", tk.Period())
	}
	fires := 0
	c := testClock(t, 100*time.Microsecond)
	for c.Now() < 50*time.Millisecond {
		now := c.Advance()
		if tk.Fire(now) {
			fires++
		}
	}
	if fires != 10 {
		t.Errorf("fires = %d, want 10 over 50ms at 5ms period", fires)
	}
}

func TestTickerCatchesUpWithoutLosingTicks(t *testing.T) {
	tk := MustTicker(5 * time.Millisecond)
	// Jump straight to 20ms: ticks at 5,10,15,20 are all due; each Fire
	// call consumes exactly one.
	now := Time(20 * time.Millisecond)
	count := 0
	for tk.Fire(now) {
		count++
	}
	if count != 4 {
		t.Errorf("catch-up fires = %d, want 4", count)
	}
	if tk.Fire(now) {
		t.Error("ticker should be exhausted at t=20ms")
	}
}

func TestTickerReset(t *testing.T) {
	tk := MustTicker(5 * time.Millisecond)
	tk.Reset(100 * time.Millisecond)
	if tk.Fire(104 * time.Millisecond) {
		t.Error("should not fire before new deadline")
	}
	if !tk.Fire(105 * time.Millisecond) {
		t.Error("should fire at new deadline")
	}
}

func TestTickerValidation(t *testing.T) {
	if _, err := NewTicker(0); err == nil {
		t.Error("zero period should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTicker(0) should panic")
		}
	}()
	MustTicker(0)
}
