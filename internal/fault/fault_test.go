package fault

import (
	"math"
	"testing"
	"time"

	"dirigent/internal/telemetry"
)

func TestPlanPredicates(t *testing.T) {
	var zero Plan
	if zero.Active() || !zero.IsZero() {
		t.Error("zero plan must be inactive and zero")
	}
	identityScale := Plan{ProfileScale: 1}
	if identityScale.Active() || !identityScale.IsZero() {
		t.Error("ProfileScale 1 is the identity")
	}
	stale := Plan{ProfileScale: 0.8}
	if stale.Active() {
		t.Error("staleness is setup-time, not run-time active")
	}
	if stale.IsZero() {
		t.Error("ProfileScale 0.8 is not the identity")
	}
	runtime := Plan{TickDrop: 0.1}
	if !runtime.Active() || runtime.IsZero() {
		t.Error("TickDrop 0.1 must be active")
	}
}

func TestClassNames(t *testing.T) {
	for c := Class(0); c < numClasses; c++ {
		if c.String() == "unknown" || c.String() == "" {
			t.Errorf("class %d has no wire name", c)
		}
	}
	if Class(200).String() != "unknown" {
		t.Error("out-of-range class should be unknown")
	}
}

func TestNilInjectorIsNoFault(t *testing.T) {
	var in *Injector
	if d, ok := in.CounterRead(0, 0, 42); d != 42 || !ok {
		t.Error("nil CounterRead must pass through")
	}
	if drop, delay := in.TickOutcome(0); drop || delay != 0 {
		t.Error("nil TickOutcome must be on time")
	}
	if fail, delay := in.DVFSOutcome(0, 0); fail || delay != 0 {
		t.Error("nil DVFSOutcome must succeed")
	}
	if in.PauseFails(0, 1, 2) || in.ResumeFails(0, 1, 2) {
		t.Error("nil pause/resume must succeed")
	}
	if in.Active() || in.Total() != 0 || in.Count(ClassTickDrop) != 0 {
		t.Error("nil injector has no state")
	}
}

func TestZeroPlanNeverInjects(t *testing.T) {
	in := NewInjector(Plan{}, 7, nil)
	for i := 0; i < 1000; i++ {
		if d, ok := in.CounterRead(0, 0, 5); d != 5 || !ok {
			t.Fatal("zero plan perturbed a counter read")
		}
		if drop, delay := in.TickOutcome(0); drop || delay != 0 {
			t.Fatal("zero plan perturbed a tick")
		}
		if fail, delay := in.DVFSOutcome(0, 0); fail || delay != 0 {
			t.Fatal("zero plan perturbed a DVFS request")
		}
		if in.PauseFails(0, 0, 0) || in.ResumeFails(0, 0, 0) {
			t.Fatal("zero plan perturbed pause/resume")
		}
	}
	if in.Total() != 0 {
		t.Errorf("Total = %d, want 0", in.Total())
	}
}

func TestDeterminism(t *testing.T) {
	plan := Plan{CounterDropout: 0.3, TickDrop: 0.2, DVFSFail: 0.4, PauseFail: 0.5}
	a := NewInjector(plan, 42, nil)
	b := NewInjector(plan, 42, nil)
	other := NewInjector(plan, 43, nil)
	same, diff := true, true
	for i := 0; i < 500; i++ {
		_, oka := a.CounterRead(0, 0, 1)
		_, okb := b.CounterRead(0, 0, 1)
		_, oko := other.CounterRead(0, 0, 1)
		da, _ := a.TickOutcome(0)
		db, _ := b.TickOutcome(0)
		if oka != okb || da != db {
			same = false
		}
		if oka != oko {
			diff = false
		}
	}
	if !same {
		t.Error("same seed must reproduce the same fault sequence")
	}
	if diff {
		t.Error("different seeds should diverge")
	}
	if a.Total() != b.Total() {
		t.Errorf("counts diverged: %d vs %d", a.Total(), b.Total())
	}
}

func TestClassStreamsIndependent(t *testing.T) {
	// Enabling an extra class must not shift another class's outcomes:
	// each class draws from its own split stream.
	only := NewInjector(Plan{TickDrop: 0.3}, 99, nil)
	both := NewInjector(Plan{TickDrop: 0.3, DVFSFail: 0.5}, 99, nil)
	for i := 0; i < 500; i++ {
		both.DVFSOutcome(0, 1) // interleave draws on the other class
		d1, _ := only.TickOutcome(0)
		d2, _ := both.TickOutcome(0)
		if d1 != d2 {
			t.Fatalf("tick outcome %d shifted when DVFS faults were enabled", i)
		}
	}
}

func TestProbabilitiesAndCounts(t *testing.T) {
	const n = 20000
	in := NewInjector(Plan{CounterDropout: 0.25}, 5, nil)
	drops := 0
	for i := 0; i < n; i++ {
		if _, ok := in.CounterRead(0, 0, 1); !ok {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("dropout rate %.3f, want ~0.25", got)
	}
	if in.Count(ClassCounterDropout) != drops {
		t.Errorf("Count = %d, want %d", in.Count(ClassCounterDropout), drops)
	}
	if in.Total() != drops {
		t.Errorf("Total = %d, want %d", in.Total(), drops)
	}
}

func TestCounterNoiseIsUnbiasedMultiplicative(t *testing.T) {
	in := NewInjector(Plan{CounterNoise: 0.1}, 11, nil)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		d, ok := in.CounterRead(0, 0, 100)
		if !ok {
			t.Fatal("noise must not drop samples")
		}
		if d < 0 {
			t.Fatal("noised delta must stay non-negative")
		}
		sum += d
	}
	mean := sum / n
	// Lognormal(0, σ) has mean e^{σ²/2} ≈ 1.005 at σ=0.1.
	if mean < 95 || mean > 107 {
		t.Errorf("mean noised delta %.2f, want ≈100", mean)
	}
	if d, _ := in.CounterRead(0, 0, -5); d != 0 {
		t.Errorf("negative delta should clamp to 0 before noising, got %g", d)
	}
}

func TestLatencyDefaults(t *testing.T) {
	in := NewInjector(Plan{TickLate: 1, DVFSLate: 1}, 3, nil)
	if got := in.Plan().TickLatency; got != DefaultTickLatency {
		t.Errorf("TickLatency default = %v", got)
	}
	if got := in.Plan().DVFSLatency; got != DefaultDVFSLatency {
		t.Errorf("DVFSLatency default = %v", got)
	}
	if drop, delay := in.TickOutcome(0); drop || delay != DefaultTickLatency {
		t.Errorf("TickOutcome = %v, %v; want late by default latency", drop, delay)
	}
	if fail, delay := in.DVFSOutcome(0, 2); fail || delay != DefaultDVFSLatency {
		t.Errorf("DVFSOutcome = %v, %v; want late by default latency", fail, delay)
	}
	custom := NewInjector(Plan{TickLate: 1, TickLatency: 7 * time.Millisecond}, 3, nil)
	if _, delay := custom.TickOutcome(0); delay != 7*time.Millisecond {
		t.Errorf("custom TickLatency not honored, got %v", delay)
	}
}

func TestFaultTelemetry(t *testing.T) {
	agg := telemetry.NewAggregator()
	in := NewInjector(Plan{PauseFail: 1, ResumeFail: 1}, 21, agg)
	if !in.PauseFails(0, 4, 2) {
		t.Fatal("PauseFail 1 must always fail")
	}
	if !in.ResumeFails(0, 4, 2) {
		t.Fatal("ResumeFail 1 must always fail")
	}
	if agg.Faults() != 2 {
		t.Errorf("aggregator Faults = %d, want 2", agg.Faults())
	}
	by := agg.FaultsByClass()
	if by["pause-fail"] != 1 || by["resume-fail"] != 1 {
		t.Errorf("FaultsByClass = %v", by)
	}
	if in.Count(ClassPauseFail) != 1 || in.Count(ClassResumeFail) != 1 {
		t.Error("per-class counts wrong")
	}
}
