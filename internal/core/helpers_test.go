package core

import (
	"math"
	"testing"
	"time"

	"dirigent/internal/machine"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/workload"
)

// accuracyResult summarizes a midpoint-prediction probe.
type accuracyResult struct {
	meanErr float64
	n       int
}

// probePredictionAccuracy profiles fg offline, then runs fg against 5
// copies of bg in the baseline configuration (no resource management),
// observing progress every ΔT and recording the midpoint prediction of each
// execution; it returns the mean |predicted−actual|/actual, Eq. 3.
func probePredictionAccuracy(t *testing.T, fg, bg string, executions int) (accuracyResult, error) {
	t.Helper()
	profile, err := ProfileBenchmark(workload.MustByName(fg), ProfilerOptions{})
	if err != nil {
		return accuracyResult{}, err
	}
	m := machine.MustNew(machine.DefaultConfig())
	specs := make([]sched.BGSpec, 5)
	for i := range specs {
		specs[i] = sched.BGSpec{Bench: workload.MustByName(bg)}
	}
	colo, err := sched.New(m, []*workload.Benchmark{workload.MustByName(fg)}, specs, sched.Options{Seed: 11})
	if err != nil {
		return accuracyResult{}, err
	}
	pred := mustPredictor(profile, DefaultEMAWeight)
	pred.BeginExecution(0)
	instrAtStart := 0.0
	fgTask := colo.FG()[0].Task

	type execRecord struct {
		midPrediction time.Duration
		actual        time.Duration
		havePred      bool
	}
	var recs []execRecord
	var cur execRecord

	mid := pred.Segments() / 2
	tick := sim.MustTicker(DefaultSamplePeriod)
	colo.OnComplete(func(stream int, e sched.Execution) {
		if err := pred.FinishExecution(e.End); err != nil {
			t.Fatalf("finish: %v", err)
		}
		cur.actual = e.Duration
		recs = append(recs, cur)
		cur = execRecord{}
		pred.BeginExecution(e.End)
		instrAtStart = m.Counters().Task(fgTask).Instructions
	})

	limit := sim.Time(time.Duration(executions) * 30 * time.Second)
	for len(recs) < executions && m.Now() < limit {
		colo.Step()
		if !tick.Fire(m.Now()) {
			continue
		}
		progress := m.Counters().Task(fgTask).Instructions - instrAtStart
		if err := pred.Observe(m.Now(), progress); err != nil {
			t.Fatalf("observe: %v", err)
		}
		if !cur.havePred && pred.SegmentIndex() >= mid {
			d, err := pred.PredictDuration(m.Now())
			if err != nil {
				t.Fatalf("predict: %v", err)
			}
			cur.midPrediction = d
			cur.havePred = true
		}
	}

	// Eq. 3 over executions that got a midpoint prediction, skipping the
	// first few training executions.
	skip := 3
	sum, n := 0.0, 0
	for i, r := range recs {
		if i < skip || !r.havePred || r.actual <= 0 {
			continue
		}
		sum += math.Abs(float64(r.midPrediction-r.actual)) / float64(r.actual)
		n++
	}
	if n == 0 {
		t.Fatal("no predictions recorded")
	}
	return accuracyResult{meanErr: sum / float64(n), n: n}, nil
}

// mustPredictor is NewPredictor that panics on error.
func mustPredictor(profile *Profile, weight float64) *Predictor {
	p, err := NewPredictor(profile, weight)
	if err != nil {
		panic(err)
	}
	return p
}

// mustRuntime is NewRuntime that panics on error.
func mustRuntime(colo *sched.Colocation, profiles []*Profile, cfg RuntimeConfig) *Runtime {
	r, err := NewRuntime(colo, profiles, cfg)
	if err != nil {
		panic(err)
	}
	return r
}
