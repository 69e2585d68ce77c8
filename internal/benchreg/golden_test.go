package benchreg

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"testing"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/golden"
	"dirigent/internal/scenario"
	"dirigent/internal/telemetry"
)

// probeRun runs the suite once for the tests that read it.
var probeRun = sync.OnceValues(Run)

// TestProbeSuiteGolden pins the suite's values bit for bit, in suite
// order: it is the gate on the §5.4 quantities and the predictor error.
func TestProbeSuiteGolden(t *testing.T) {
	ms, err := probeRun()
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/probes.json", ms)
}

// TestSuiteDeterministic runs the suite a second time in the same process
// and requires an identical result, so a golden mismatch caused by
// nondeterminism is told apart from a change in behaviour.
func TestSuiteDeterministic(t *testing.T) {
	first, err := probeRun()
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, second) {
		t.Errorf("identical suite runs differ:\n%v\n%v", first, second)
	}
}

// TestScenarioProbeGoldens pins the four scenario probes (one per machine
// class; dual-socket runs the per-socket solver) byte for byte: both
// sessions scenario.RunSpec drives — the Baseline pass that sets the
// deadlines and the policy run — and the SHA-256 of their full JSONL trace,
// quantum steps included. The files under testdata/golden were recorded by
// scripts/goldens-at-parent.sh on the last commit with two step engines,
// where the per-quantum reference engine and batched stepping produced them
// identically.
func TestScenarioProbeGoldens(t *testing.T) {
	for _, spec := range scenarioProbes() {
		r := experiment.NewRunner()
		r.MachineClass = spec.MachineClass
		r.Executions = spec.Executions
		r.Warmup = scenario.DefaultWarmup
		r.ConvergenceWarmup = scenario.DefaultConvergenceWarmup
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
