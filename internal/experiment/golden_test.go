package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dirigent/internal/golden"
	"dirigent/internal/telemetry"
)

// The goldens under testdata/golden were recorded by
// scripts/goldens-at-parent.sh on the last commit with two step engines:
// each value was produced identically by the per-quantum reference engine
// and by batched stepping there, so matching it bit for bit proves the
// batched stepping loops still equal quantum-by-quantum stepping.

// goldenRunner is the small runner every golden run uses.
func goldenRunner() *Runner {
	r := NewRunner()
	r.Executions = 10
	r.Warmup = 2
	r.CalibExecutions = 5
	r.ConvergenceWarmup = 8
	return r
}

// traceDigest is the SHA-256 of a full JSONL trace, quantum steps included.
type traceDigest struct {
	Events int64  `json:"events"`
	SHA256 string `json:"sha256"`
}

// TestSkipaheadEquivalentFullRun is the end-to-end contract for batched
// stepping: a full RunMix — every system configuration, runtime
// controllers, partitioning, the works — reproduces the recorded results
// and the recorded full-volume event trace byte for byte.
func TestSkipaheadEquivalentFullRun(t *testing.T) {
	mix := Mix{Name: "skipahead", FG: []string{"ferret"}, BG: repeat("rs", 5)}
	r := goldenRunner()
	h := sha256.New()
	jsonl := telemetry.NewJSONL(h).Include(telemetry.KindQuantumStep)
	r.Recorder = jsonl
	res, err := r.RunMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/fullrun_result.json", res)
	golden.Check(t, "testdata/golden/fullrun_trace.json", traceDigest{Events: jsonl.Events(), SHA256: hex.EncodeToString(h.Sum(nil))})
}

// TestSkipaheadEquivalentResilience extends the contract to fault plans: a
// resilience sweep (fault injection across every class, a stale-profile
// run, and the in-place re-profiling recovery path) reproduces the recorded
// results. Faults land mid-run at seeded times, so this exercises batches
// cut short by ticks, postponed ticks, and re-profiles.
func TestSkipaheadEquivalentResilience(t *testing.T) {
	mix := Mix{Name: "skipahead res", FG: []string{"ferret"}, BG: repeat("rs", 5)}
	r := goldenRunner()
	r.Executions = 12
	res, err := r.ResilienceSweep(mix, ResilienceOptions{Intensities: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/resilience_result.json", res)
}

// TestPredictionProbeGolden pins the predictor-accuracy probe, which steps
// its collocation up to each sampler tick, on the paper's Fig. 6 mix.
func TestPredictionProbeGolden(t *testing.T) {
	mix := Mix{Name: "raytrace rs", FG: []string{"raytrace"}, BG: repeat("rs", 5)}
	res, err := NewRunner().PredictionProbe(mix, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden/prediction_probe.json", res)
}
