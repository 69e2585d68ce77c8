package core

import (
	"math"
	"testing"
	"time"

	"dirigent/internal/sim"
)

// syntheticProfile builds a profile of n segments, each with the given
// progress and a 5 ms duration.
func syntheticProfile(n int, progress float64) *Profile {
	p := &Profile{Benchmark: "synthetic", SamplePeriod: 5 * time.Millisecond}
	for i := 0; i < n; i++ {
		p.Segments = append(p.Segments, Segment{Progress: progress, Duration: 5 * time.Millisecond})
	}
	return p
}

func ms(x float64) sim.Time { return sim.Time(x * float64(time.Millisecond)) }

func TestNewPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(nil, 0.2); err == nil {
		t.Error("nil profile should error")
	}
	if _, err := NewPredictor(&Profile{}, 0.2); err == nil {
		t.Error("invalid profile should error")
	}
	p := syntheticProfile(10, 100)
	if _, err := NewPredictor(p, -0.5); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := NewPredictor(p, 1.5); err == nil {
		t.Error("weight > 1 should error")
	}
	pred, err := NewPredictor(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Segments() != 10 {
		t.Errorf("Segments = %d", pred.Segments())
	}
}

func TestPredictorLifecycleErrors(t *testing.T) {
	pred := mustPredictor(syntheticProfile(4, 100), 0.2)
	if err := pred.Observe(0, 0); err == nil {
		t.Error("Observe before Begin should error")
	}
	if _, err := pred.Predict(0); err == nil {
		t.Error("Predict before Begin should error")
	}
	if err := pred.FinishExecution(0); err == nil {
		t.Error("Finish before Begin should error")
	}
	pred.BeginExecution(0)
	if !pred.Started() {
		t.Error("Started should be true")
	}
	if err := pred.Observe(ms(5), 100); err != nil {
		t.Fatal(err)
	}
	if err := pred.Observe(ms(4), 120); err == nil {
		t.Error("backwards time should error")
	}
	// Backwards progress (a glitched counter read) is tolerated as "no
	// progress this interval" and must not move the milestone state.
	if err := pred.Observe(ms(6), 50); err != nil {
		t.Errorf("backwards progress should be clamped, got %v", err)
	}
	if err := pred.Observe(ms(7), 120); err != nil {
		t.Errorf("recovery after clamped sample should succeed, got %v", err)
	}
}

func TestPredictorUncontendedMatchesProfile(t *testing.T) {
	// Feeding the profiled trajectory exactly must predict the profiled
	// completion time throughout.
	pred := mustPredictor(syntheticProfile(10, 100), 0.2)
	pred.BeginExecution(0)
	total := ms(50)
	for i := 1; i <= 5; i++ {
		if err := pred.Observe(ms(float64(5*i)), float64(100*i)); err != nil {
			t.Fatal(err)
		}
		got, err := pred.Predict(ms(float64(5 * i)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got-total)) > float64(100*time.Microsecond) {
			t.Errorf("at segment %d: Predict = %v, want %v", i, got, total)
		}
	}
}

func TestPredictorUniformSlowdown(t *testing.T) {
	// Task runs at half speed: every segment takes 10 ms instead of 5 ms.
	// After a few segments the α average approaches 2 and the prediction
	// approaches the true 100 ms completion.
	pred := mustPredictor(syntheticProfile(10, 100), 0.2)
	pred.BeginExecution(0)
	for i := 1; i <= 5; i++ {
		if err := pred.Observe(ms(float64(10*i)), float64(100*i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pred.Predict(ms(50))
	if err != nil {
		t.Fatal(err)
	}
	// First execution: penalties unseeded; prediction = 50ms + 5 segments
	// scaled by the α EMA. The EMA starts at the carry-over seed 1.0 so it
	// lags below 2; the prediction must fall between the naive 75 ms and
	// the true 100 ms, much closer to 100.
	if got < ms(80) || got > ms(105) {
		t.Errorf("Predict = %v, want ≈100ms (between 80 and 105)", got)
	}
	if pred.AlphaMA() <= 1.4 || pred.AlphaMA() > 2.01 {
		t.Errorf("AlphaMA = %g, want approaching 2", pred.AlphaMA())
	}
}

func TestPredictorLearnsAcrossExecutions(t *testing.T) {
	// A persistent per-segment slowdown pattern: odd segments 2× slow.
	// After several executions the penalty EMAs encode the pattern and a
	// midpoint prediction is accurate even before the slow segments run.
	profile := syntheticProfile(10, 100)
	pred := mustPredictor(profile, 0.2)
	trueDur := func() float64 {
		d := 0.0
		for i := 0; i < 10; i++ {
			if i%2 == 1 {
				d += 10
			} else {
				d += 5
			}
		}
		return d // 75 ms
	}()

	var lastErr float64
	start := sim.Time(0)
	for exec := 0; exec < 8; exec++ {
		pred.BeginExecution(start)
		now := start
		progress := 0.0
		var midPrediction sim.Time
		for i := 0; i < 10; i++ {
			step := ms(5)
			if i%2 == 1 {
				step = ms(10)
			}
			now += step
			progress += 100
			if err := pred.Observe(now, progress); err != nil {
				t.Fatal(err)
			}
			if i == 4 {
				var err error
				midPrediction, err = pred.Predict(now)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := pred.FinishExecution(now); err != nil {
			t.Fatal(err)
		}
		actual := float64(now-start) / float64(time.Millisecond)
		if math.Abs(actual-trueDur) > 1e-6 {
			t.Fatalf("test harness bug: actual %g != %g", actual, trueDur)
		}
		lastErr = math.Abs(float64(midPrediction-start)/float64(time.Millisecond)-trueDur) / trueDur
		start = now
	}
	if lastErr > 0.02 {
		t.Errorf("midpoint prediction error after training = %.2f%%, want < 2%%", lastErr*100)
	}
	if !pred.penalties[0].Seeded() || !pred.penalties[9].Seeded() {
		t.Error("penalties should be seeded after full executions")
	}
}

func TestPredictorMultipleMilestonesInOneSample(t *testing.T) {
	// A sparse observer (20 ms between samples over 5 ms segments) still
	// resolves all milestone crossings by interpolation.
	pred := mustPredictor(syntheticProfile(10, 100), 0.2)
	pred.BeginExecution(0)
	if err := pred.Observe(ms(20), 400); err != nil {
		t.Fatal(err)
	}
	if pred.SegmentIndex() != 4 {
		t.Errorf("SegmentIndex = %d, want 4", pred.SegmentIndex())
	}
	// Uniform rate → α = 1 per segment → prediction = profiled total.
	got, err := pred.Predict(ms(20))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got-ms(50))) > float64(200*time.Microsecond) {
		t.Errorf("Predict = %v, want 50ms", got)
	}
}

func TestPredictorFinishResolvesTail(t *testing.T) {
	pred := mustPredictor(syntheticProfile(10, 100), 0.2)
	pred.BeginExecution(0)
	if err := pred.Observe(ms(25), 500); err != nil {
		t.Fatal(err)
	}
	if err := pred.FinishExecution(ms(55)); err != nil {
		t.Fatal(err)
	}
	if pred.Started() {
		t.Error("Started should be false after Finish")
	}
	for i := 0; i < 10; i++ {
		if !pred.penalties[i].Seeded() {
			t.Errorf("segment %d penalty not seeded after Finish", i)
		}
	}
	// Second execution's α MA is seeded from the first execution's final.
	pred.BeginExecution(ms(55))
	if pred.AlphaMA() == 1.0 {
		t.Error("α carry-over should differ from 1 after a slow execution")
	}
}

func TestPredictDurationAndExecStart(t *testing.T) {
	pred := mustPredictor(syntheticProfile(4, 100), 0.2)
	pred.BeginExecution(ms(100))
	if pred.ExecStart() != ms(100) {
		t.Errorf("ExecStart = %v", pred.ExecStart())
	}
	if err := pred.Observe(ms(105), 100); err != nil {
		t.Fatal(err)
	}
	d, err := pred.PredictDuration(ms(105))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(d-20*time.Millisecond)) > float64(200*time.Microsecond) {
		t.Errorf("PredictDuration = %v, want ~20ms", d)
	}
}

func TestPredictorPartialSegmentInterpolation(t *testing.T) {
	// Halfway through a segment at profiled speed, prediction should still
	// be the profiled total (smooth between milestones).
	pred := mustPredictor(syntheticProfile(10, 100), 0.2)
	pred.BeginExecution(0)
	if err := pred.Observe(ms(7.5), 150); err != nil {
		t.Fatal(err)
	}
	got, err := pred.Predict(ms(7.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got-ms(50))) > float64(300*time.Microsecond) {
		t.Errorf("mid-segment Predict = %v, want 50ms", got)
	}
}

func TestPredictorAgainstRealMachineBaseline(t *testing.T) {
	// End-to-end accuracy check in the spirit of Fig. 6/7: profile ferret
	// offline, run it against 5 bwaves with no management, feed the
	// predictor every 5 ms, record the midpoint prediction for each
	// execution, compare against the actual completion.
	res, err := probePredictionAccuracy(t, "ferret", "bwaves", 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.meanErr > 0.06 {
		t.Errorf("mean midpoint prediction error = %.1f%%, want < 6%%", res.meanErr*100)
	}
}
