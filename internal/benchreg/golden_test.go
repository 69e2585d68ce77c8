package benchreg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/scenario"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// TestScenarioProbeGoldens pins the four scenario probes (one per machine
// class; dual-socket runs the per-socket solver) byte for byte: both
// sessions scenario.RunSpec drives — the Baseline pass that sets the
// deadlines and the policy run — and the SHA-256 of their full JSONL trace,
// quantum steps included. The files under testdata/golden were recorded by
// scripts/goldens-at-parent.sh on the last commit with two step engines,
// where the per-quantum reference engine and batched stepping produced them
// identically.
func TestScenarioProbeGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("eight scenario sessions")
	}
	for _, spec := range scenarioProbes(false) {
		r := experiment.NewRunner()
		r.MachineClass = spec.MachineClass
		r.Executions = spec.Executions
		r.Warmup = scenario.DefaultWarmup
		r.ConvergenceWarmup = scenario.DefaultConvergenceWarmup
		h := sha256.New()
		jsonl := telemetry.NewJSONL(h).Include(telemetry.KindQuantumStep)
		r.Recorder = jsonl
		mix := experiment.Mix{Name: spec.Name, FG: spec.Mix.FG, BG: spec.Mix.BG}
		run := func(p experiment.RunParams) *experiment.RunResult {
			s, err := r.StartSession(mix, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunExecutions(s.Goal(), sim.Time(r.TimeLimit)); err != nil {
				t.Fatal(err)
			}
			rr, err := s.Collect()
			if err != nil {
				t.Fatal(err)
			}
			return rr
		}
		var g struct {
			Baseline    *experiment.RunResult `json:"baseline"`
			Managed     *experiment.RunResult `json:"managed"`
			TraceEvents int64                 `json:"trace_events"`
			TraceSHA256 string                `json:"trace_sha256"`
		}
		g.Baseline = run(experiment.RunParams{Config: config.Baseline, BGLevel: -1, Executions: r.Executions})
		targets := make([]time.Duration, len(g.Baseline.Streams))
		deadlines := make([]float64, len(g.Baseline.Streams))
		for i, s := range g.Baseline.Streams {
			deadlines[i] = s.Summary.Mean + experiment.DeadlineSigma*s.Summary.Std
			targets[i] = time.Duration(deadlines[i] * float64(time.Second))
		}
		g.Managed = run(experiment.RunParams{
			Config: config.Dirigent, Policy: spec.Policy, Targets: targets, Deadlines: deadlines,
			BGLevel: -1, Executions: r.Executions, ExtraWarmup: r.ConvergenceWarmup,
		})
		if err := jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		g.TraceEvents = jsonl.Events()
		g.TraceSHA256 = hex.EncodeToString(h.Sum(nil))

		got, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		name := "scenario_" + strings.ReplaceAll(spec.MachineClass, "-", "_") + ".json"
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: sessions differ from the recorded golden\ngot:\n%s", name, got)
		}
	}
}
