package experiment

import (
	"strings"
	"testing"
)

func TestRenderPredictionAccuracyEmpty(t *testing.T) {
	out := RenderPredictionAccuracy(nil)
	if !strings.Contains(out, "no results") {
		t.Errorf("empty render = %q, want a 'no results' line", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("empty render must not show NaN aggregates: %q", out)
	}
}

func TestResilienceSweepRejectsMultiFG(t *testing.T) {
	r := NewRunner()
	mix := Mix{Name: "two fg", FG: []string{"ferret", "raytrace"}, BG: []string{"rs", "rs", "rs", "rs"}}
	if _, err := r.ResilienceSweep(mix, ResilienceOptions{}); err == nil {
		t.Error("multi-FG mix should be rejected")
	}
}

func TestMinSuccessAtUnknownIntensity(t *testing.T) {
	res := &ResilienceResult{Classes: []ResilienceClassResult{
		{Class: "tick", Points: []ResiliencePoint{{Intensity: 0.3, Success: 0.9}}},
	}}
	if got := res.MinSuccessAt(0.5); got != -1 {
		t.Errorf("MinSuccessAt(unswept) = %v, want -1", got)
	}
	if got := res.MinSuccessAt(0.3); got != 0.9 {
		t.Errorf("MinSuccessAt(0.3) = %v, want 0.9", got)
	}
}

func TestResilienceSweepSmoke(t *testing.T) {
	r := NewRunner()
	r.Executions = 16
	r.ConvergenceWarmup = 6
	mix := Mix{Name: "ferret rs", FG: []string{"ferret"}, BG: []string{"rs", "rs", "rs", "rs", "rs"}}
	res, err := r.ResilienceSweep(mix, ResilienceOptions{Intensities: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.StandaloneSec <= 0 || res.TargetFactor != DefaultResilienceTargetFactor {
		t.Errorf("QoS point not derived: standalone %v factor %v", res.StandaloneSec, res.TargetFactor)
	}
	if res.CleanSuccess <= 0 {
		t.Error("clean reference has zero success — target derivation broken")
	}
	if len(res.Classes) == 0 {
		t.Fatal("no class curves")
	}
	for _, c := range res.Classes {
		if len(c.Points) != 1 {
			t.Fatalf("class %s has %d points, want 1", c.Class, len(c.Points))
		}
		if c.Points[0].Faults == 0 {
			t.Errorf("class %s injected no faults at intensity 0.3", c.Class)
		}
		if c.Points[0].Success < 0 || c.Points[0].Success > 1 {
			t.Errorf("class %s success %v out of range", c.Class, c.Points[0].Success)
		}
	}
	if res.Reprofiles < 1 {
		t.Error("recovery run never re-profiled")
	}
	// Determinism: the whole sweep is seeded by the mix, so a second run
	// reproduces it exactly.
	again, err := r.ResilienceSweep(mix, ResilienceOptions{Intensities: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Classes[0].Points[0] != res.Classes[0].Points[0] ||
		again.CleanSuccess != res.CleanSuccess ||
		again.StaleSuccess != res.StaleSuccess ||
		again.RecoveredSuccess != res.RecoveredSuccess {
		t.Error("sweep is not seed-deterministic")
	}
	out := RenderResilience(res)
	for _, want := range []string{"Resilience", "counter-dropout", "stale profile", "re-profiling"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
