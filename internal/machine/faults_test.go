package machine

import (
	"errors"
	"slices"
	"testing"
	"time"

	"dirigent/internal/fault"
	"dirigent/internal/telemetry"
)

// newFaultyMachine builds a machine under plan and returns it with an
// aggregator that counts the injector's faults.
func newFaultyMachine(t *testing.T, plan fault.Plan) (*Machine, *telemetry.Aggregator) {
	t.Helper()
	faults := telemetry.NewAggregator()
	cfg := DefaultConfig()
	cfg.Faults = fault.NewInjector(plan, 17, faults)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, faults
}

func TestSetFreqLevelFaultFail(t *testing.T) {
	m, faults := newFaultyMachine(t, fault.Plan{DVFSFail: 1})
	err := m.SetFreqLevel(0, 2)
	if !errors.Is(err, ErrActuation) {
		t.Fatalf("err = %v, want ErrActuation", err)
	}
	if l, _ := m.FreqLevel(0); l != m.MaxFreqLevel() {
		t.Errorf("failed transition must leave the level unchanged, got %d", l)
	}
	// Requesting the current level is a no-op, never an actuation: it must
	// succeed even under a plan that fails every transition.
	if err := m.SetFreqLevel(0, m.MaxFreqLevel()); err != nil {
		t.Errorf("no-op request drew a fault: %v", err)
	}
	if got := faults.FaultsByClass()[fault.ClassDVFSFail.String()]; got != 1 {
		t.Errorf("DVFSFail count = %d, want 1", got)
	}
}

func TestSetFreqLevelFaultLatency(t *testing.T) {
	m, faults := newFaultyMachine(t, fault.Plan{DVFSLate: 1})
	agg := telemetry.NewAggregator()
	m.SetRecorder(agg)
	launch(t, m, "ferret", 0, 0)
	launch(t, m, "lbm", 1, 0)
	// The machine folds frequency residency lazily; at every read point it
	// must equal the aggregator's, which is rebuilt independently from the
	// quantum-step and DVFS events, and each core's row must sum to the
	// elapsed simulated time.
	checkResidency := func(when string) {
		t.Helper()
		for c := 0; c < m.NumCores(); c++ {
			res, err := m.FreqResidency(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := agg.FreqResidency(c); !slices.Equal(res, want) {
				t.Errorf("%s: core %d residency %v, aggregator %v", when, c, res, want)
			}
			var sum time.Duration
			for _, d := range res {
				sum += d
			}
			if sum != m.Now() {
				t.Errorf("%s: core %d residency sums to %v, now %v", when, c, sum, m.Now())
			}
		}
	}
	checkResidency("before any quantum")
	if err := m.SetFreqLevel(0, 3); err != nil {
		t.Fatal(err)
	}
	// The transition is accepted but pending: reads report the old level,
	// like a sysfs frequency mid-write.
	if l, _ := m.FreqLevel(0); l != m.MaxFreqLevel() {
		t.Fatalf("pending transition committed early: level %d", l)
	}
	// Re-requesting the pending level is a no-op (no second fault draw).
	if err := m.SetFreqLevel(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := faults.FaultsByClass()[fault.ClassDVFSLate.String()]; got != 1 {
		t.Errorf("DVFSLate count = %d, want 1", got)
	}
	// Step past the 500 µs default latency (250 µs quanta).
	for i := 0; i < 3; i++ {
		m.StepN(1)
	}
	if l, _ := m.FreqLevel(0); l != 3 {
		t.Errorf("transition did not commit after its latency: level %d", l)
	}
	checkResidency("after the delayed commit")
	// A step reads the clock at its quantum's end, so the transition due at
	// 500 µs commits at the top of the second quantum, which therefore runs
	// at the new level.
	q := m.Config().Quantum
	if res, _ := m.FreqResidency(0); res[m.MaxFreqLevel()] != q || res[3] != 2*q {
		t.Errorf("core 0 residency %v, want 1 quantum at the top level and 2 at level 3", res)
	}

	// A delayed commit inside a StepN batch, then batches and back-to-back
	// reads with no level change between them.
	if err := m.SetFreqLevel(1, 5); err != nil {
		t.Fatal(err)
	}
	if _, n := m.StepN(10); n != 10 {
		t.Fatalf("StepN advanced %d quanta, want 10", n)
	}
	if l, _ := m.FreqLevel(1); l != 5 {
		t.Errorf("mid-batch transition did not commit: level %d", l)
	}
	checkResidency("after a mid-batch commit")
	for _, n := range []int{7, 1, 13} {
		m.StepN(n)
		checkResidency("after a batch")
	}
	checkResidency("on a second read with no level change")
	if res, _ := m.FreqResidency(1); res[m.MaxFreqLevel()] != 4*q || res[5] != 30*q {
		t.Errorf("core 1 residency %v, want 4 quanta at the top level and 30 at level 5", res)
	}
}

func TestPauseResumeFaults(t *testing.T) {
	m, _ := newFaultyMachine(t, fault.Plan{PauseFail: 1})
	id := launch(t, m, "ferret", 0, 0)
	if err := m.Pause(id); !errors.Is(err, ErrActuation) {
		t.Fatalf("Pause err = %v, want ErrActuation", err)
	}
	if p, _ := m.Paused(id); p {
		t.Error("failed pause must leave the task running")
	}

	m2, _ := newFaultyMachine(t, fault.Plan{ResumeFail: 1})
	id2 := launch(t, m2, "ferret", 0, 0)
	if err := m2.Pause(id2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Resume(id2); !errors.Is(err, ErrActuation) {
		t.Fatalf("Resume err = %v, want ErrActuation", err)
	}
	if p, _ := m2.Paused(id2); !p {
		t.Error("failed resume must leave the task paused")
	}
	// Pausing an already-paused task is a no-op, not an actuation.
	if err := m2.Pause(id2); err != nil {
		t.Errorf("no-op pause drew a fault: %v", err)
	}
}

func TestFaultFreeMachineHasNoPendingState(t *testing.T) {
	m := newTestMachine(t)
	if m.pendingFreq != nil {
		t.Error("pendingFreq must stay nil without an injector (zero-cost opt-in)")
	}
	if err := m.SetFreqLevel(0, 1); err != nil {
		t.Fatal(err)
	}
	if l, _ := m.FreqLevel(0); l != 1 {
		t.Errorf("immediate commit expected, level %d", l)
	}
}
