package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/machine"
	"dirigent/internal/sim"
)

func sessionRunner() *Runner {
	r := NewRunner()
	r.Executions = 4
	r.Warmup = 1
	return r
}

func sessionParams(c config.Name) RunParams {
	p := RunParams{Config: c, BGLevel: -1}
	if c == config.Dirigent {
		p.Targets = []time.Duration{1500 * time.Millisecond}
	}
	return p
}

// TestSessionCollectMidRun pins mid-run snapshots: before a live stream's
// first post-warmup execution, Collect reports an empty summary instead of
// failing, and the collect of the finished run summarises every execution.
func TestSessionCollectMidRun(t *testing.T) {
	mix := Mix{Name: "partial", FG: []string{"ferret"}, BG: []string{"rs", "lbm"}}
	q := sim.Time(machine.DefaultConfig().Quantum)
	for _, c := range []config.Name{config.Baseline, config.Dirigent} {
		r := sessionRunner()
		s, err := r.StartSession(mix, sessionParams(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Advance(10 * q); err != nil {
			t.Fatal(err)
		}
		if s.Now() != 10*q || s.Completed() != 0 {
			t.Fatalf("%s: after 10 quanta now=%v completed=%d", c, s.Now(), s.Completed())
		}
		rr, err := s.Collect()
		if err != nil {
			t.Fatalf("%s: mid-run Collect: %v", c, err)
		}
		if n := rr.Streams[0].Summary.N; n != 0 {
			t.Errorf("%s: mid-run summary N = %d, want 0", c, n)
		}
		if err := s.RunExecutions(s.Goal(), sim.Time(r.TimeLimit)); err != nil {
			t.Fatal(err)
		}
		rr, err = s.Collect()
		if err != nil {
			t.Fatalf("%s: final Collect: %v", c, err)
		}
		if n, want := rr.Streams[0].Summary.N, s.Goal()-r.Warmup; n != want {
			t.Errorf("%s: final summary N = %d, want %d", c, n, want)
		}
	}
}

// TestSessionAdvanceStopsAtCompletions pins Advance's contract: it returns
// right after the quantum in which an execution completes, so stepping a
// session in fixed slices while checking the goal in between (the served
// tenant loop) reproduces RunExecutions byte for byte.
func TestSessionAdvanceStopsAtCompletions(t *testing.T) {
	mix := Mix{Name: "slices", FG: []string{"ferret"}, BG: []string{"rs", "lbm"}}
	q := sim.Time(machine.DefaultConfig().Quantum)
	for _, c := range []config.Name{config.Baseline, config.Dirigent} {
		r := sessionRunner()
		ref, err := r.StartSession(mix, sessionParams(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.RunExecutions(ref.Goal(), sim.Time(r.TimeLimit)); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Collect()
		if err != nil {
			t.Fatal(err)
		}

		s, err := r.StartSession(mix, sessionParams(c))
		if err != nil {
			t.Fatal(err)
		}
		for s.Completed() < s.Goal() {
			before := s.Completed()
			end := s.Now() + 256*q
			if err := s.Advance(end); err != nil {
				t.Fatal(err)
			}
			if s.Completed() != before && s.Now() > end {
				t.Fatalf("%s: Advance overshot %v to %v", c, end, s.Now())
			}
			if s.Completed() == before && s.Now() != end {
				t.Fatalf("%s: Advance stopped at %v before %v without a completion", c, s.Now(), end)
			}
		}
		got, err := s.Collect()
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: sliced session differs from RunExecutions:\n%s\n%s", c, gb, wb)
		}
	}
}

// TestStartSessionResolves pins how StartSession, the one path every run
// takes, resolves RunParams: the defaults it fills in, seen through the
// session's goal and its collected result, and the parameters it rejects
// before any machine is built (no event reaches the runner's recorder).
func TestStartSessionResolves(t *testing.T) {
	mix := Mix{Name: "resolve", FG: []string{"ferret"}, BG: []string{"rs", "lbm"}}
	target := []time.Duration{1500 * time.Millisecond}
	cases := []struct {
		name     string
		p        RunParams
		wantErr  string // a substring of the error; "" for a session
		goal     int
		deadline float64
		bgLevel  int
	}{
		{name: "executions default to the runner's",
			p: RunParams{Config: config.Baseline, BGLevel: -1}, goal: 4, bgLevel: -1},
		{name: "extra warmup adds to the goal",
			p: RunParams{Config: config.Baseline, BGLevel: -1, Executions: 6, ExtraWarmup: 2}, goal: 8, bgLevel: -1},
		{name: "deadlines default to the targets",
			p: RunParams{Config: config.Dirigent, BGLevel: -1, Targets: target}, goal: 4, deadline: 1.5, bgLevel: -1},
		{name: "explicit deadlines are kept",
			p: RunParams{Config: config.Dirigent, BGLevel: -1, Targets: target, Deadlines: []float64{1.7}}, goal: 4, deadline: 1.7, bgLevel: -1},
		{name: "StaticFreq pins BG to level 0",
			p: RunParams{Config: config.StaticFreq, BGLevel: -1}, goal: 4, bgLevel: 0},
		{name: "an empty deadline list sets no deadline",
			p: RunParams{Config: config.Baseline, BGLevel: -1, Deadlines: []float64{}}, goal: 4, bgLevel: -1},
		{name: "deadline count",
			p: RunParams{Config: config.Baseline, BGLevel: -1, Deadlines: []float64{1, 2}}, wantErr: "2 deadlines for 1 FG streams"},
		{name: "target count",
			p: RunParams{Config: config.Dirigent, BGLevel: -1, Targets: append(target, target...), Deadlines: []float64{1.5}}, wantErr: "2 targets for 1 FG streams"},
		{name: "missing targets",
			p: RunParams{Config: config.DirigentFreq, BGLevel: -1}, wantErr: "0 targets for 1 FG streams"},
		{name: "unknown policy",
			p: RunParams{Config: config.Dirigent, Policy: "nope", BGLevel: -1, Targets: target}, wantErr: `unknown policy "nope"`},
		{name: "negative extra warmup",
			p: RunParams{Config: config.Baseline, BGLevel: -1, ExtraWarmup: -100}, wantErr: "negative extra warmup -100"},
	}
	q := sim.Time(machine.DefaultConfig().Quantum)
	for _, c := range cases {
		r := sessionRunner()
		sink := &labelSink{runs: map[string]int{}}
		r.Recorder = sink
		s, err := r.StartSession(mix, c.p)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
			}
			if len(sink.runs) != 0 {
				t.Errorf("%s: rejected after building a machine (events %v)", c.name, sink.runs)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if s.Goal() != c.goal {
			t.Errorf("%s: goal %d, want %d", c.name, s.Goal(), c.goal)
		}
		if err := s.Advance(10 * q); err != nil {
			t.Fatal(err)
		}
		rr, err := s.Collect()
		if err != nil {
			t.Errorf("%s: collect: %v", c.name, err)
			continue
		}
		if d := rr.Streams[0].Deadline; d != c.deadline {
			t.Errorf("%s: deadline %g, want %g", c.name, d, c.deadline)
		}
		if rr.StaticBGLevel != c.bgLevel {
			t.Errorf("%s: static BG level %d, want %d", c.name, rr.StaticBGLevel, c.bgLevel)
		}
	}
}
