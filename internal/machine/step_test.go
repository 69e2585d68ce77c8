package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/golden"
	"dirigent/internal/perf"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// tinyFG is a jitter-free foreground benchmark whose single execution
// retires in the third 250 µs quantum at 2 GHz (500 k instructions per
// quantum at BaseCPI 1), giving tests precise control over completion
// timing.
func tinyFG() *workload.Benchmark {
	return &workload.Benchmark{
		Name: "tinyfg",
		Kind: workload.Foreground,
		Phases: []workload.Phase{
			{Name: "p", Instructions: 1.3e6, BaseCPI: 1},
		},
	}
}

// TestStepEnginesEquivalent drives a seeded four-task machine through 400
// StepN batches of 1..13 quanta, interleaving DVFS requests, pauses/resumes
// and runtime-overhead charges at batch boundaries, and requires the
// outcome to match testdata/golden/step_schedule.json bit for bit: batch
// lengths, completions, clock, memory utilization, per-task, per-core and
// total counters, frequency residency, the telemetry aggregates, and the
// SHA-256 of the full JSONL event stream. The golden was recorded by
// scripts/goldens-at-parent.sh on the last commit with two step engines,
// where the per-quantum reference engine and StepN batching produced it
// identically.
func TestStepEnginesEquivalent(t *testing.T) {
	m := MustNew(DefaultConfig())
	bgClass := m.LLC().DefineClass()
	if err := m.LLC().SetPartition(map[cache.ClassID]int{0: 12, bgClass: 8}); err != nil {
		t.Fatal(err)
	}
	var tasks []int
	for i, spec := range []struct {
		bench string
		core  int
		class cache.ClassID
	}{
		{"ferret", 0, 0},
		{"bwaves", 1, bgClass},
		{"rs", 2, bgClass},
		{"lbm", 3, bgClass},
	} {
		prog := workload.MustProgram(workload.MustByName(spec.bench))
		prog.SetOffset(float64(i) * 1e7)
		id, err := m.Launch(spec.bench, prog, spec.core, spec.class)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, id)
	}

	h := sha256.New()
	jsonl := telemetry.NewJSONL(h).Include(telemetry.KindQuantumStep)
	agg := telemetry.NewAggregator()
	m.SetRecorder(telemetry.Tee(agg, jsonl))

	var g struct {
		Batches         []int             `json:"batches"`
		Completions     []Completion      `json:"completions"`
		Now             sim.Time          `json:"now"`
		Utilization     float64           `json:"utilization"`
		Tasks           []perf.Sample     `json:"tasks"`
		Cores           []perf.Sample     `json:"cores"`
		Total           perf.Sample       `json:"total"`
		Residency       [][]time.Duration `json:"residency"`
		AggQuanta       int64             `json:"agg_quanta"`
		AggInstructions float64           `json:"agg_instructions"`
		AggLLCMisses    float64           `json:"agg_llc_misses"`
		AggResidency    [][]time.Duration `json:"agg_residency"`
		TraceEvents     int64             `json:"trace_events"`
		TraceSHA256     string            `json:"trace_sha256"`
	}
	for i := 0; i < 400; i++ {
		if i%5 == 2 {
			if err := m.SetFreqLevel(1, i%9); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 3 {
			if err := m.Pause(tasks[2]); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 5 {
			if err := m.Resume(tasks[2]); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if err := m.ChargeOverhead(3, 40*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		done, n := m.StepN(i%13 + 1)
		g.Batches = append(g.Batches, n)
		g.Completions = append(g.Completions, done...)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}

	g.Now = m.Now()
	g.Utilization = m.LastUtilization()
	for _, id := range tasks {
		g.Tasks = append(g.Tasks, m.Counters().Task(id))
	}
	for c := 0; c < m.NumCores(); c++ {
		cs, err := m.Counters().Core(c)
		if err != nil {
			t.Fatal(err)
		}
		g.Cores = append(g.Cores, cs)
		res, err := m.FreqResidency(c)
		if err != nil {
			t.Fatal(err)
		}
		g.Residency = append(g.Residency, res)
		g.AggResidency = append(g.AggResidency, agg.FreqResidency(c))
	}
	g.Total = m.Counters().Total()
	g.AggQuanta = agg.Quanta()
	g.AggInstructions = agg.Instructions()
	g.AggLLCMisses = agg.LLCMisses()
	g.TraceEvents = jsonl.Events()
	g.TraceSHA256 = hex.EncodeToString(h.Sum(nil))
	golden.Check(t, "testdata/golden/step_schedule.json", g)
}

// TestStepNEarlyStop pins StepN's completion semantics: a batch stops at the
// quantum that produces a completion, reporting exactly how far it got.
func TestStepNEarlyStop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlowJitterSigma = 0
	m := MustNew(cfg)
	id, err := m.Launch("tinyfg", workload.MustProgram(tinyFG()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done, n := m.StepN(10)
	if n != 3 {
		t.Fatalf("StepN advanced %d quanta, want 3 (completion in the third)", n)
	}
	if len(done) != 1 || done[0].Task != id {
		t.Fatalf("completions = %v, want one for task %d", done, id)
	}
	if want := sim.Time(3 * cfg.Quantum); done[0].At != want || m.Now() != want {
		t.Fatalf("completion at %v (now %v), want %v", done[0].At, m.Now(), want)
	}
}

// TestRunUnalignedUntil pins Run's ceil coverage: an until between quantum
// boundaries still runs the covering quantum in full, and completions that
// land in that final partial quantum are delivered, not dropped.
func TestRunUnalignedUntil(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlowJitterSigma = 0
	m := MustNew(cfg)
	id, err := m.Launch("tinyfg", workload.MustProgram(tinyFG()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The completion lands in the third quantum (500–750 µs); until cuts
	// into that quantum.
	until := sim.Time(2*cfg.Quantum) + sim.Time(cfg.Quantum)/2
	var got []Completion
	steps := 0
	m.Run(until, func(now sim.Time, done []Completion) {
		steps++
		got = append(got, done...)
	})
	if want := sim.Time(3 * cfg.Quantum); m.Now() != want {
		t.Fatalf("Run stopped at %v, want quantum boundary %v", m.Now(), want)
	}
	if steps != 3 {
		t.Fatalf("Run stepped %d quanta, want 3", steps)
	}
	if len(got) != 1 || got[0].Task != id || got[0].At != sim.Time(3*cfg.Quantum) {
		t.Fatalf("final-quantum completions = %v, want one for task %d at %v", got, id, sim.Time(3*cfg.Quantum))
	}
}

// TestQuantaUntil pins the ceil-aligned conversion every stepping loop uses.
func TestQuantaUntil(t *testing.T) {
	m := MustNew(DefaultConfig())
	q := sim.Time(m.Config().Quantum)
	for _, tc := range []struct {
		until sim.Time
		want  int
	}{
		{0, 0}, {-q, 0}, {1, 1}, {q, 1}, {q + 1, 2}, {5 * q, 5},
	} {
		if got := m.QuantaUntil(tc.until); got != tc.want {
			t.Errorf("QuantaUntil(%v) at 0 = %d, want %d", tc.until, got, tc.want)
		}
	}
	m.StepN(3)
	if got := m.QuantaUntil(3 * q); got != 0 {
		t.Errorf("QuantaUntil(now) = %d, want 0", got)
	}
	if got := m.QuantaUntil(3*q + q/2); got != 1 {
		t.Errorf("QuantaUntil(now+q/2) = %d, want 1", got)
	}
}
