package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/golden"
	"dirigent/internal/policy"
	"dirigent/internal/telemetry"
)

// scenarioProbes are one scenario per machine class; dual-socket runs the
// per-socket solver.
func scenarioProbes() []Spec {
	return []Spec{
		{
			Name:         "probe-xeon-e5",
			MachineClass: "xeon-e5",
			Mix:          MixSpec{FG: []string{"ferret"}, BG: []string{"rs", "lbm"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
		},
		{
			Name:         "probe-quad-low",
			MachineClass: "quad-low",
			Mix:          MixSpec{FG: []string{"ferret"}, BG: []string{"lbm", "rs"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
		},
		{
			Name:         "probe-biglittle",
			MachineClass: "biglittle",
			Mix:          MixSpec{FG: []string{"ferret", "raytrace"}, BG: []string{"lbm", "rs", "pca", "namd"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
		},
		{
			Name:         "probe-dual-socket",
			MachineClass: "dual-socket",
			Mix:          MixSpec{FG: []string{"ferret", "bodytrack"}, BG: []string{"lbm", "soplex", "bwaves", "pca"}},
			Policy:       policy.NameDirigent,
			Executions:   10,
		},
	}
}

// TestScenarioProbeGoldens pins the four scenario probes byte for byte:
// both sessions RunSpec drives — the Baseline pass that sets the deadlines
// and the policy run — and the SHA-256 of their full JSONL trace, quantum
// steps included. They are the only per-class pins. The files under
// testdata/golden were recorded by scripts/goldens-at-parent.sh on the last
// commit with two step engines, where the per-quantum reference engine and
// batched stepping produced them identically.
func TestScenarioProbeGoldens(t *testing.T) {
	for _, spec := range scenarioProbes() {
		r := experiment.NewRunner()
		r.MachineClass = spec.MachineClass
		r.Executions = spec.Executions
		r.Warmup = DefaultWarmup
		r.ConvergenceWarmup = DefaultConvergenceWarmup
		h := sha256.New()
		jsonl := telemetry.NewJSONL(h).Include(telemetry.KindQuantumStep)
		r.Recorder = jsonl
		mix := experiment.Mix{Name: spec.Name, FG: spec.Mix.FG, BG: spec.Mix.BG}
		base, deadlines, targets, err := r.Baseline(mix)
		if err != nil {
			t.Fatal(err)
		}
		managed, err := r.Run(mix, experiment.RunParams{
			Config: config.Dirigent, Policy: spec.Policy, Targets: targets, Deadlines: deadlines,
			BGLevel: -1, ExtraWarmup: r.ConvergenceWarmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		g := struct {
			Baseline    *experiment.RunResult `json:"baseline"`
			Managed     *experiment.RunResult `json:"managed"`
			TraceEvents int64                 `json:"trace_events"`
			TraceSHA256 string                `json:"trace_sha256"`
		}{base, managed, jsonl.Events(), hex.EncodeToString(h.Sum(nil))}
		golden.Check(t, "testdata/golden/scenario_"+strings.ReplaceAll(spec.MachineClass, "-", "_")+".json", g)
	}
}
