package experiment

import (
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/config"
	"dirigent/internal/core"
	"dirigent/internal/machine"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// TestAggregatorMatchesGroundTruth runs a full Dirigent assembly (machine +
// colocation + runtime, partitioning on) with an aggregator attached and
// checks that every statistic reconstructed from the event stream equals the
// simulator's own accounting — the invariant that lets RunResult be
// populated purely from telemetry.
func TestAggregatorMatchesGroundTruth(t *testing.T) {
	r := smallRunner()
	mix := Mix{Name: "equiv", FG: []string{"ferret"}, BG: repeat("pca", 5)}

	mcfg := machine.DefaultConfig()
	mcfg.Seed = mix.Seed()
	m := machine.MustNew(mcfg)
	agg := telemetry.NewAggregator()
	m.SetRecorder(agg)

	fgClass := m.LLC().DefineClass()
	bgClass := m.LLC().DefineClass()
	initial := m.LLC().Ways() / 2
	if err := m.LLC().SetPartition(map[cache.ClassID]int{
		0: 0, fgClass: initial, bgClass: m.LLC().Ways() - initial,
	}); err != nil {
		t.Fatal(err)
	}

	fgb, err := mix.FGBenchmarks()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := mix.BGSpecs()
	if err != nil {
		t.Fatal(err)
	}
	colo, err := sched.New(m, fgb, specs, sched.Options{
		Seed: mix.Seed(), FGClass: fgClass, BGClass: bgClass,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := r.Profile("ferret")
	if err != nil {
		t.Fatal(err)
	}
	kinds := kindSink{}
	rt, err := core.NewRuntime(colo, []*core.Profile{prof}, core.RuntimeConfig{
		Targets:            []time.Duration{500 * time.Millisecond},
		EnablePartitioning: true,
		Recorder:           telemetry.Tee(agg, kinds),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunExecutions(40, sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}

	// Frequency residency replayed from quantum steps + DVFS transitions
	// must equal the machine's per-core accounting exactly, on every core.
	for c := 0; c < m.NumCores(); c++ {
		want, err := m.FreqResidency(c)
		if err != nil {
			t.Fatal(err)
		}
		got := agg.FreqResidency(c)
		if len(got) != len(want) {
			t.Fatalf("core %d: residency levels %d vs %d", c, len(got), len(want))
		}
		for l := range want {
			if got[l] != want[l] {
				t.Errorf("core %d level %d: aggregated %v != machine %v", c, l, got[l], want[l])
			}
		}
	}
	// Coarse-controller state reconstructed from partition events.
	if agg.FGWays() != rt.Coarse().FGWays() {
		t.Errorf("FGWays: aggregated %d != controller %d", agg.FGWays(), rt.Coarse().FGWays())
	}
	if agg.ConvergedAtExecution() != rt.Coarse().ConvergedAt() {
		t.Errorf("ConvergedAt: aggregated %d != controller %d",
			agg.ConvergedAtExecution(), rt.Coarse().ConvergedAt())
	}
	if agg.Executions() < 40 {
		t.Errorf("executions seen = %d, want >= 40", agg.Executions())
	}
	// Per-stream execution durations replayed from completion events must
	// equal the scheduler's own records — the invariant that lets collect()
	// derive QoS statistics from the event stream.
	for i, f := range colo.FG() {
		want := f.Durations()
		got := agg.StreamDurations(i)
		if len(got) != len(want) {
			t.Fatalf("stream %d: %d aggregated durations vs %d scheduler records", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Seconds() != want[j] {
				t.Errorf("stream %d execution %d: aggregated %v != scheduler %v s", i, j, got[j], want[j])
			}
		}
	}
	if agg.Fine().Decisions == 0 {
		t.Error("no fine decisions aggregated")
	}
	if kinds[telemetry.KindSegmentPenalty] == 0 {
		t.Error("no segment penalties emitted")
	}
}

// TestRunMixDeterministicWithRecorder is the determinism contract: the same
// seed yields byte-identical results across runs, and attaching a trace
// recorder must not perturb the simulation at all.
func TestRunMixDeterministicWithRecorder(t *testing.T) {
	newRunner := func() *Runner {
		r := NewRunner()
		r.Executions = 12
		r.Warmup = 2
		r.CalibExecutions = 6
		r.ConvergenceWarmup = 10
		return r
	}
	mix := Mix{Name: "det", FG: []string{"bodytrack"}, BG: repeat("pca", 5)}

	run := func(rec telemetry.Recorder) []byte {
		r := newRunner()
		r.Recorder = rec
		res, err := r.RunMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	plain := run(nil)
	again := run(nil)
	if string(plain) != string(again) {
		t.Error("same seed must reproduce byte-identical results")
	}
	// Full-volume trace (quantum steps included) teed in: still identical.
	traced := run(telemetry.NewJSONL(io.Discard).Include(telemetry.KindQuantumStep))
	if string(plain) != string(traced) {
		t.Error("recording a trace must not change results")
	}
}

// TestProfileSingleFlight hammers the profile cache concurrently: every
// caller must get the same cached profile, and (under -race) no data race.
func TestProfileSingleFlight(t *testing.T) {
	r := smallRunner()
	const workers = 16
	profs := make([]*core.Profile, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profs[i], errs[i] = r.Profile("ferret")
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if profs[i] == nil || profs[i] != profs[0] {
			t.Fatalf("worker %d got a different profile instance", i)
		}
	}
}

// TestRunnerRecorderLabelsRuns checks the harness stamps mix/config labels
// and emits a parseable stream through the user-provided sink.
func TestRunnerRecorderLabelsRuns(t *testing.T) {
	r := smallRunner()
	r.Executions = 10
	r.CalibExecutions = 5
	r.ConvergenceWarmup = 8
	sink := &labelSink{runs: map[string]int{}}
	r.Recorder = sink
	mix := Mix{Name: "lbl", FG: []string{"bodytrack"}, BG: repeat("pca", 5)}
	if _, err := r.RunMix(mix); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range config.Names() {
		label := "lbl/" + string(cfg)
		if sink.runs[label] == 0 {
			t.Errorf("no events labelled %q (got %v)", label, sink.runs)
		}
	}
}

// kindSink counts events by kind.
type kindSink map[telemetry.Kind]int

func (s kindSink) Enabled(telemetry.Kind) bool { return true }

func (s kindSink) Record(ev telemetry.Event) { s[ev.Kind]++ }

type labelSink struct {
	mu   sync.Mutex
	runs map[string]int
}

func (s *labelSink) Enabled(telemetry.Kind) bool { return true }

func (s *labelSink) Record(ev telemetry.Event) {
	s.mu.Lock()
	s.runs[ev.Run]++
	s.mu.Unlock()
}
