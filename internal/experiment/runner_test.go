package experiment

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
)

// smallRunner keeps experiment tests fast: fewer executions, same defaults
// otherwise.
func smallRunner() *Runner {
	r := NewRunner()
	r.Executions = 24
	r.Warmup = 4
	r.CalibExecutions = 10
	return r
}

func TestRunnerProfileCache(t *testing.T) {
	r := smallRunner()
	p1, err := r.Profile("ferret")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Profile("ferret")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("profile should be cached")
	}
	if _, err := r.Profile("nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
	if _, err := r.Profile("bwaves"); err == nil {
		t.Error("BG benchmark should error")
	}
}

func TestRunMixAllConfigs(t *testing.T) {
	r := smallRunner()
	mix := Mix{Name: "bodytrack pca", FG: []string{"bodytrack"}, BG: repeat("pca", 5)}
	res, err := r.RunMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deadlines) != 1 || res.Deadlines[0] <= 0 {
		t.Fatalf("Deadlines = %v", res.Deadlines)
	}
	for _, c := range config.Names() {
		run := res.ByConfig[c]
		if run == nil {
			t.Fatalf("missing config %s", c)
		}
		if run.Config != c {
			t.Errorf("run config = %s, want %s", run.Config, c)
		}
		if len(run.Streams) != 1 {
			t.Fatalf("%s: %d streams", c, len(run.Streams))
		}
		s := run.Streams[0]
		if s.Summary.Mean <= 0 || len(s.Durations) == 0 {
			t.Errorf("%s: empty stream stats", c)
		}
		if s.Deadline != res.Deadlines[0] {
			t.Errorf("%s: stream deadline %g != %g", c, s.Deadline, res.Deadlines[0])
		}
		if s.SuccessRate < 0 || s.SuccessRate > 1 {
			t.Errorf("%s: success rate %g", c, s.SuccessRate)
		}
		if run.BGInstrRate <= 0 {
			t.Errorf("%s: BG rate %g", c, run.BGInstrRate)
		}
		if run.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", c, run.Elapsed)
		}
	}

	// Deadline math: µ + 0.3σ of baseline.
	base := res.ByConfig[config.Baseline].Streams[0]
	want := base.Summary.Mean + DeadlineSigma*base.Summary.Std
	if d := res.Deadlines[0]; d != want {
		t.Errorf("deadline = %g, want %g", d, want)
	}

	// Baseline is its own BG reference.
	if got := res.RelBGThroughput(config.Baseline); got != 1 {
		t.Errorf("baseline RelBGThroughput = %g", got)
	}
	if got := res.RelStd(config.Baseline); got != 1 {
		t.Errorf("baseline RelStd = %g", got)
	}

	// Shape expectations (the paper's headline directions).
	dir := res.ByConfig[config.Dirigent]
	if dir.MeanSuccessRate() < 0.9 {
		t.Errorf("Dirigent success = %g, want >= 0.9", dir.MeanSuccessRate())
	}
	if res.RelStd(config.Dirigent) > 0.7 {
		t.Errorf("Dirigent rel std = %g, want < 0.7", res.RelStd(config.Dirigent))
	}
	if dir.FGWays == 0 {
		t.Error("Dirigent run should record a partition")
	}
	sf := res.ByConfig[config.StaticFreq]
	if res.RelBGThroughput(config.StaticFreq) >= 1 {
		t.Errorf("StaticFreq should cost BG throughput: %g", res.RelBGThroughput(config.StaticFreq))
	}
	if sf.StaticBGLevel != 0 {
		t.Errorf("StaticFreq BG level = %d", sf.StaticBGLevel)
	}
	sb := res.ByConfig[config.StaticBoth]
	if sb.FGWays == 0 {
		t.Error("StaticBoth should record its partition")
	}
	if sb.StaticBGLevel < 0 {
		t.Error("StaticBoth should record its calibrated BG level")
	}
	if sb.MinSuccessRate() > sb.MeanSuccessRate() {
		t.Error("min success cannot exceed mean")
	}

	// Frequency residency recorded for the runtime configs.
	df := res.ByConfig[config.DirigentFreq]
	var total time.Duration
	for _, d := range df.BGFreqResidency {
		total += d
	}
	if total <= 0 {
		t.Error("DirigentFreq should record BG frequency residency")
	}
	if df.Fine.Decisions == 0 {
		t.Error("DirigentFreq should record fine controller decisions")
	}
}

// TestRunMixEveryClass: StaticBoth's calibration and Fig. 12 use the DVFS
// grades of the runner's machine class, so both work on every class,
// quad-low's five-level ladder included.
func TestRunMixEveryClass(t *testing.T) {
	mix := Mix{Name: "ferret rs", FG: []string{"ferret"}, BG: repeat("rs", 3)}
	for _, class := range machine.ClassNames() {
		r := NewRunner()
		r.MachineClass = class
		r.Executions, r.Warmup, r.CalibExecutions, r.ConvergenceWarmup = 8, 2, 4, 4
		res, err := r.RunMix(mix)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		rows, err := r.FreqDistribution(res)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		cfg, _ := machine.ClassConfig(class)
		grades := policy.GradesForLevels(len(cfg.FreqLevelsGHz))
		if lvl := res.ByConfig[config.StaticBoth].StaticBGLevel; !slices.Contains(grades, lvl) {
			t.Errorf("%s: StaticBoth BG level %d is not one of the grades %v", class, lvl, grades)
		}
		for _, row := range rows {
			sum := 0.0
			for _, f := range row.Fraction {
				sum += f
			}
			if len(row.GHz) != len(grades) || math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s %s: %v GHz with fractions %v, want the %d grades' residency summing to 1", class, row.Config, row.GHz, row.Fraction, len(grades))
			}
		}
	}
}

func TestRunMixesParallelDeterminism(t *testing.T) {
	r := smallRunner()
	mixes := []Mix{
		{Name: "fluidanimate namd x", FG: []string{"fluidanimate"}, BG: repeat("lbm+namd", 5)},
		{Name: "raytrace pca", FG: []string{"raytrace"}, BG: repeat("pca", 5)},
	}
	got, err := r.RunMixes(mixes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("results = %d", len(got))
	}
	for i, res := range got {
		if res.Mix.Name != mixes[i].Name {
			t.Errorf("result %d order wrong: %s", i, res.Mix.Name)
		}
	}
	// Rerunning a mix alone reproduces the same numbers (determinism even
	// across parallel scheduling).
	again, err := r.RunMix(mixes[1])
	if err != nil {
		t.Fatal(err)
	}
	a := got[1].ByConfig[config.Dirigent].Streams[0].Summary
	b := again.ByConfig[config.Dirigent].Streams[0].Summary
	if a.Mean != b.Mean || a.Std != b.Std {
		t.Errorf("parallel vs solo mismatch: %+v vs %+v", a, b)
	}
}

func TestRunMixInvalid(t *testing.T) {
	r := smallRunner()
	if _, err := r.RunMix(Mix{Name: "bad"}); err == nil {
		t.Error("invalid mix should error")
	}
	if _, err := r.RunMixes([]Mix{{Name: "bad"}}); err == nil {
		t.Error("invalid mix in batch should error")
	}
}

// TestRunRefusesWarmupOnly: a run whose executions do not outnumber the
// warmup would report warmup executions as its results.
func TestRunRefusesWarmupOnly(t *testing.T) {
	r := smallRunner()
	mix := Mix{Name: "ferret alone", FG: []string{"ferret"}}
	p := RunParams{Config: config.Baseline, BGLevel: -1, Executions: r.Warmup}
	want := "experiment: 4 executions leave none after the 4 warmup executions"
	if _, err := r.Run(mix, p); err == nil || err.Error() != want {
		t.Errorf("Run at Executions == Warmup: %v, want %q", err, want)
	}
	p.Executions++
	if res, err := r.Run(mix, p); err != nil || len(res.Streams[0].Durations) != 1 {
		t.Errorf("Run at Warmup+1: %v", err)
	}
}

func TestRunResultHelpers(t *testing.T) {
	rr := &RunResult{Streams: []StreamResult{{SuccessRate: 0.8}, {SuccessRate: 1.0}}}
	if got := rr.MinSuccessRate(); got != 0.8 {
		t.Errorf("MinSuccessRate = %g", got)
	}
	if got := rr.MeanSuccessRate(); got != 0.9 {
		t.Errorf("MeanSuccessRate = %g", got)
	}
	empty := &RunResult{}
	if empty.MeanSuccessRate() != 0 || empty.MeanStd() != 0 {
		t.Error("empty result helpers should be 0")
	}
	if empty.TotalMPKFGI() != 0 || empty.FGMissShare() != 0 {
		t.Error("empty counters should yield 0 metrics")
	}
	full := &RunResult{TotalLLCMisses: 200, FGLLCMisses: 50, FGInstructions: 1e6}
	if got := full.TotalMPKFGI(); got != 0.2 {
		t.Errorf("TotalMPKFGI = %g", got)
	}
	if got := full.FGMissShare(); got != 0.25 {
		t.Errorf("FGMissShare = %g", got)
	}
}

// TestMaxParallelEnv: DIRIGENT_MAX_PARALLEL overrides the mix-sweep worker
// count; non-positive values clamp to 1 (a zero-width fan-out would
// deadlock every sweep), unparsable values fall back to GOMAXPROCS.
func TestMaxParallelEnv(t *testing.T) {
	t.Setenv("DIRIGENT_MAX_PARALLEL", "3")
	if got := MaxParallel(); got != 3 {
		t.Errorf("MaxParallel with env 3 = %d", got)
	}
	for _, nonpos := range []string{"0", "-2"} {
		t.Setenv("DIRIGENT_MAX_PARALLEL", nonpos)
		if got := MaxParallel(); got != 1 {
			t.Errorf("MaxParallel with env %q = %d, want clamp to 1", nonpos, got)
		}
	}
	def := runtime.GOMAXPROCS(0)
	for _, bad := range []string{"", "many"} {
		t.Setenv("DIRIGENT_MAX_PARALLEL", bad)
		if got := MaxParallel(); got != def {
			t.Errorf("MaxParallel with env %q = %d, want GOMAXPROCS %d", bad, got, def)
		}
	}
	// The clamp must make the fan-out safe end-to-end: under the previously
	// deadlocking value, a bounded fan-out still completes, runs the indices
	// in ascending order, and returns each result in its own slot.
	t.Setenv("DIRIGENT_MAX_PARALLEL", "0")
	var order []int
	got, err := FanOut(6, func(i int) (int, error) {
		order = append(order, i)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("FanOut at width 1 ran %v, want %v", order, want)
	}
	if want := []int{0, 1, 4, 9, 16, 25}; !slices.Equal(got, want) {
		t.Errorf("FanOut results = %v, want %v", got, want)
	}
	// Indices 1 and 3 fail, 3 first in time: the error is index 1's.
	t.Setenv("DIRIGENT_MAX_PARALLEL", "2")
	failed3 := make(chan struct{})
	_, err = FanOut(6, func(i int) (int, error) {
		switch i {
		case 1:
			select {
			case <-failed3:
			case <-time.After(time.Minute):
				t.Error("slot 3 never ran while slot 1 waited: FanOut ran narrower than 2")
			}
			return 0, errors.New("slot 1")
		case 3:
			close(failed3)
			return 0, errors.New("slot 3")
		}
		return i, nil
	})
	if err == nil || err.Error() != "slot 1" {
		t.Errorf("FanOut with slots 1 and 3 failing returned %v, want slot 1's error", err)
	}
}
