package dirigent_test

import (
	"bytes"
	"testing"
	"time"

	"dirigent"
)

// TestPublicAPIEndToEnd drives the full public surface the README
// advertises: catalog lookup, machine construction, partition classes,
// collocation, offline profiling, runtime, and the evaluation runner types.
func TestPublicAPIEndToEnd(t *testing.T) {
	fg, err := dirigent.BenchmarkByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	bg, err := dirigent.BenchmarkByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirigent.FGBenchmarks()) != 5 || len(dirigent.BGBenchmarks()) != 3 || len(dirigent.RotateBenchmarks()) != 4 {
		t.Fatal("catalog accessors wrong")
	}

	m := dirigent.NewMachine(dirigent.DefaultMachineConfig())
	fgClass := m.LLC().DefineClass()
	bgClass := m.LLC().DefineClass()
	if err := m.LLC().SetPartition(map[dirigent.ClassID]int{0: 0, fgClass: 4, bgClass: 16}); err != nil {
		t.Fatal(err)
	}

	specs := make([]dirigent.BGSpec, 5)
	for i := range specs {
		specs[i] = dirigent.BGSpec{Bench: bg}
	}
	colo, err := dirigent.NewColocation(m, []*dirigent.Benchmark{fg}, specs,
		dirigent.ColocationOptions{Seed: 99, FGClass: fgClass, BGClass: bgClass})
	if err != nil {
		t.Fatal(err)
	}

	profile, err := dirigent.ProfileBenchmark(fg, dirigent.ProfilerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := dirigent.NewPredictor(profile, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Segments() < 40 {
		t.Errorf("Segments = %d", pred.Segments())
	}

	// Telemetry through the facade: an aggregator plus a labelled JSONL
	// trace, teed onto the runtime's bus.
	var traceBuf bytes.Buffer
	agg := dirigent.NewAggregator()
	rec := dirigent.TeeRecorders(agg, dirigent.WithRunLabel(dirigent.NewJSONLRecorder(&traceBuf), "api"))
	rt, err := dirigent.NewRuntime(colo, []*dirigent.Profile{profile}, dirigent.RuntimeConfig{
		Targets:            []time.Duration{650 * time.Millisecond},
		EnablePartitioning: true,
		Recorder:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunExecutions(8, dirigent.Time(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if colo.FG()[0].Completed() < 8 {
		t.Error("executions not recorded")
	}
	if rt.Coarse() == nil || rt.Coarse().FGWays() < 2 {
		t.Error("coarse controller missing")
	}
	if agg.Executions() < 8 || agg.Fine().Decisions == 0 {
		t.Error("telemetry aggregator saw no activity")
	}
	if agg.FGWays() != rt.Coarse().FGWays() {
		t.Errorf("aggregated FGWays %d != controller %d", agg.FGWays(), rt.Coarse().FGWays())
	}
	if traceBuf.Len() == 0 {
		t.Error("JSONL trace is empty")
	}
	if dirigent.NopRecorder().Enabled(dirigent.QuantumStepEvent) {
		t.Error("nop recorder must report every kind disabled")
	}

	// Online profiling through the facade.
	online, err := dirigent.ProfileOnline(colo, 0, dirigent.OnlineProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if online.Benchmark != fg.Name {
		t.Errorf("online profile benchmark = %s", online.Benchmark)
	}

	// Evaluation-harness types are reachable.
	if got := len(dirigent.AllSingleFGMixes()); got != 35 {
		t.Errorf("AllSingleFGMixes = %d", got)
	}
	if got := len(dirigent.MultiFGMixes()); got != 15 {
		t.Errorf("MultiFGMixes = %d", got)
	}
	names := []dirigent.ConfigName{dirigent.Baseline, dirigent.StaticFreq, dirigent.StaticBoth,
		dirigent.DirigentFreq, dirigent.Dirigent}
	if len(names) != 5 {
		t.Error("config name constants missing")
	}
	r := dirigent.NewRunner()
	if r.Executions <= 0 {
		t.Error("runner defaults missing")
	}
}
