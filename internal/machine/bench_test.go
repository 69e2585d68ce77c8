package machine

import (
	"testing"

	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// benchMachine builds a fully loaded default machine: one FG task and five
// BG tasks, one per core, matching the paper's standard collocation shape.
func benchMachine(b *testing.B) *Machine {
	b.Helper()
	m := MustNew(DefaultConfig())
	fg := workload.FG()[0]
	if _, err := m.Launch(fg.Name, workload.MustProgram(fg), 0, 0); err != nil {
		b.Fatal(err)
	}
	bg := workload.SingleBG()[0]
	for c := 1; c < m.NumCores(); c++ {
		if _, err := m.Launch(bg.Name, workload.MustProgram(bg), c, 0); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkMachineStep measures the per-quantum fixed-point solver on a
// fully loaded machine — the simulator's hot path. It is the reference
// against which telemetry overhead is judged: with the no-op recorder the
// cost per Step must stay within a few percent of this baseline.
func BenchmarkMachineStep(b *testing.B) {
	m := benchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkMachineStepAggregator measures the same hot path with the
// telemetry Aggregator attached — the configuration every experiment run
// uses, whose cost perfbench's end-to-end sim_rate includes.
func BenchmarkMachineStepAggregator(b *testing.B) {
	m := benchMachine(b)
	m.SetRecorder(telemetry.NewAggregator())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}
