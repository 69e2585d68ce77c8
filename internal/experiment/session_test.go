package experiment

import (
	"bytes"
	"encoding/json"
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
