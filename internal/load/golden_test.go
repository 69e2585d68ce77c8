package load

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dirigent/internal/golden"
)

// pinnedSpec is a short bursty churn across a runtime and a non-runtime
// template. TestPinnedTraceGolden pins its trace's event counts, next to
// the generator, together with a digest of the whole trace.
func pinnedSpec() Spec {
	return Spec{
		Name:             "benchreg-load",
		Seed:             1789,
		DurationS:        3,
		Arrival:          ArrivalSpec{Model: ModelBursty, RatePerS: 3, BurstFactor: 2, OnS: 0.75, OffS: 0.75},
		Lifetime:         LifetimeSpec{MeanS: 1, MinS: 0.2},
		RetargetRatePerS: 0.5,
		MaxLive:          6,
		Tenants: []TenantTemplate{
			{
				Name: "rt", Weight: 3,
				Mix:        MixSpec{FG: []string{"ferret"}, BG: []string{"pca"}},
				TargetMS:   []float64{1500},
				Executions: 5,
			},
			{
				Name: "base", Weight: 1, Config: "Baseline",
				Mix:        MixSpec{FG: []string{"bodytrack"}, BG: []string{"pca"}},
				TargetMS:   []float64{2000},
				Executions: 5,
			},
		},
	}
}

// TestPinnedTraceGolden pins the synthesized trace of pinnedSpec byte for
// byte: its per-operation counts and the SHA-256 of its canonical JSONL
// encoding (Trace.Encode).
func TestPinnedTraceGolden(t *testing.T) {
	tr, err := Synthesize(pinnedSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Spec        string `json:"spec"`
		Seed        uint64 `json:"seed"`
		Events      int    `json:"events"`
		Creates     int    `json:"creates"`
		Retargets   int    `json:"retargets"`
		Evicts      int    `json:"evicts"`
		TraceSHA256 string `json:"trace_sha256"`
	}
	g.Spec, g.Seed, g.Events = tr.Spec, tr.Seed, len(tr.Events)
	g.Creates, g.Retargets, g.Evicts = tr.Counts()
	sum := sha256.Sum256(encode(t, tr))
	g.TraceSHA256 = hex.EncodeToString(sum[:])
	golden.Check(t, "testdata/golden/pinned_trace.json", g)
}
