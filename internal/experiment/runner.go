package experiment

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/core"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
	"dirigent/internal/sim"
	"dirigent/internal/stats"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// DeadlineSigma is the paper's deadline rule: µ_Baseline + 0.3·σ_Baseline
// (§5.4).
const DeadlineSigma = 0.3

// Runner executes workload mixes under the five configurations.
type Runner struct {
	// Executions per run (post-warmup executions are Executions−Warmup).
	Executions int
	// Warmup executions discarded from statistics.
	Warmup int
	// CalibExecutions per candidate during StaticBoth calibration.
	CalibExecutions int
	// ConvergenceWarmup is the extra warmup for partitioned Dirigent runs,
	// covering the coarse controller's convergence (~32 executions, §5.3).
	ConvergenceWarmup int
	// TimeLimit bounds each run in simulated time.
	TimeLimit time.Duration
	// MachineClass selects the hardware every run and profile of this
	// runner is built on (machine.ClassNames). Empty means the default
	// xeon-e5 evaluation platform, byte-identical to runners predating
	// machine classes.
	MachineClass string

	// Recorder is an optional extra telemetry sink: every run's event
	// stream is teed into it (labelled "mix/config" via WithRun) in
	// addition to the per-run aggregator the runner consumes internally.
	// The sink must be safe for concurrent use when RunMixes parallelism
	// is in play (telemetry.JSONL is).
	Recorder telemetry.Recorder

	mu       sync.Mutex
	profiles map[string]*profileEntry
}

// profileEntry makes offline profiling single-flight: the first caller for
// a benchmark computes, concurrent callers for the same benchmark block on
// the same once instead of profiling redundantly.
type profileEntry struct {
	once sync.Once
	p    *core.Profile
	err  error
}

// NewRunner returns a runner with the defaults used throughout the
// reproduction: 60 executions, 5 warmup, 30 calibration executions, 32
// convergence-warmup executions, and a one-hour simulated time limit.
func NewRunner() *Runner {
	return &Runner{
		Executions:        60,
		Warmup:            5,
		CalibExecutions:   30,
		ConvergenceWarmup: 32,
		TimeLimit:         time.Hour,
		profiles:          map[string]*profileEntry{},
	}
}

// Profile returns the offline profile for an FG benchmark on the runner's
// machine class, computing and caching it on first use. Profiles are
// immutable and safe to share. Concurrent calls for the same benchmark are
// single-flight: exactly one profiling run happens, the rest wait for its
// result.
func (r *Runner) Profile(name string) (*core.Profile, error) {
	return r.profile(name, core.DefaultSamplePeriod)
}

// profile is Profile sampled every period, cached per period.
func (r *Runner) profile(name string, period time.Duration) (*core.Profile, error) {
	// Profiles are machine-dependent (a little core's standalone time is
	// not a Xeon's), so the cache key carries the class. The default class
	// keeps the bare benchmark name and the default profiler options the
	// pre-class code used.
	class := r.MachineClass
	if class == machine.DefaultClass {
		class = ""
	}
	key := name
	if class != "" {
		key = class + "/" + name
	}
	if period != core.DefaultSamplePeriod {
		key += "@" + period.String()
	}
	r.mu.Lock()
	e, ok := r.profiles[key]
	if !ok {
		e = &profileEntry{}
		r.profiles[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		b, err := workload.ByName(name)
		if err != nil {
			e.err = err
			return
		}
		opts := core.ProfilerOptions{SamplePeriod: period}
		if class != "" {
			mcfg, err := machine.ClassConfig(class)
			if err != nil {
				e.err = err
				return
			}
			opts.MachineConfig = mcfg
		}
		e.p, e.err = core.ProfileBenchmark(b, opts)
	})
	return e.p, e.err
}

// StreamResult holds per-FG-stream outcomes of one run.
type StreamResult struct {
	// Bench is the stream's benchmark name.
	Bench string
	// Durations are post-warmup execution times in seconds.
	Durations []float64
	// Summary describes Durations.
	Summary stats.Summary
	// MPKI is the stream's LLC misses per kilo-instruction over the whole
	// run (Fig. 4).
	MPKI float64
	// Deadline is the absolute per-execution deadline in seconds (0 when
	// not yet known, i.e. during the baseline pass).
	Deadline float64
	// SuccessRate is the fraction of executions meeting Deadline.
	SuccessRate float64
}

// RunResult holds the outcome of one mix under one configuration.
type RunResult struct {
	Mix    Mix
	Config config.Name
	// Policy is the registered name of the QoS policy that drove the run
	// ("" for non-runtime configurations).
	Policy string
	// Streams are per-FG-stream results.
	Streams []StreamResult
	// BGInstrRate is BG instructions per simulated second — the throughput
	// numerator; divide by Baseline's to get the paper's relative metric.
	BGInstrRate float64
	// Elapsed is the simulated duration of the run.
	Elapsed time.Duration
	// FGWays is the final FG partition (0 = unpartitioned).
	FGWays int
	// StaticBGLevel is the static BG frequency level (-1 = not static).
	StaticBGLevel int
	// ConvergedAtExecution is the FG execution count at the coarse
	// controller's final partition change (Fig. 8's convergence measure).
	ConvergedAtExecution int
	// BGFreqResidency sums time at each machine frequency level across BG
	// cores (Fig. 12).
	BGFreqResidency []time.Duration
	// Fine is the cumulative fine-controller telemetry, aggregated from
	// the run's event stream (zero for non-runtime runs).
	Fine telemetry.FineStats
	// TotalLLCMisses, FGLLCMisses and FGInstructions are machine-wide and
	// FG-side counters for the Fig. 5 interference metrics.
	TotalLLCMisses float64
	FGLLCMisses    float64
	FGInstructions float64
	// Faults counts injected faults observed in the run's event stream, by
	// class and in total; Reprofiles counts successful in-place re-profiling
	// episodes. All zero for fault-free runs.
	Faults        int
	FaultsByClass map[string]int
	Reprofiles    int
}

// TotalMPKFGI returns machine-wide LLC misses per thousand FG instructions
// (Fig. 5's blue bars).
func (rr *RunResult) TotalMPKFGI() float64 {
	if rr.FGInstructions <= 0 {
		return 0
	}
	return rr.TotalLLCMisses / rr.FGInstructions * 1000
}

// FGMissShare returns the fraction of machine-wide LLC misses generated by
// FG tasks (Fig. 5's red curve).
func (rr *RunResult) FGMissShare() float64 {
	if rr.TotalLLCMisses <= 0 {
		return 0
	}
	return rr.FGLLCMisses / rr.TotalLLCMisses
}

// MinSuccessRate returns the worst per-stream success rate.
func (rr *RunResult) MinSuccessRate() float64 {
	min := 1.0
	for _, s := range rr.Streams {
		if s.SuccessRate < min {
			min = s.SuccessRate
		}
	}
	return min
}

// MeanSuccessRate returns the average per-stream success rate.
func (rr *RunResult) MeanSuccessRate() float64 {
	if len(rr.Streams) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range rr.Streams {
		sum += s.SuccessRate
	}
	return sum / float64(len(rr.Streams))
}

// MeanStd returns the average per-stream standard deviation.
func (rr *RunResult) MeanStd() float64 {
	if len(rr.Streams) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range rr.Streams {
		sum += s.Summary.Std
	}
	return sum / float64(len(rr.Streams))
}

// MixResult bundles a mix's runs across configurations.
type MixResult struct {
	Mix Mix
	// Deadlines are the per-stream deadlines (seconds) derived from the
	// Baseline pass.
	Deadlines []float64
	// ByConfig maps configuration name to its run.
	ByConfig map[config.Name]*RunResult
}

// RelBGThroughput returns cfg's BG throughput relative to Baseline.
func (mr *MixResult) RelBGThroughput(cfg config.Name) float64 {
	base := mr.ByConfig[config.Baseline]
	run := mr.ByConfig[cfg]
	if base == nil || run == nil || base.BGInstrRate == 0 {
		return 0
	}
	return run.BGInstrRate / base.BGInstrRate
}

// RelStd returns cfg's mean FG standard deviation relative to Baseline
// (Fig. 14).
func (mr *MixResult) RelStd(cfg config.Name) float64 {
	base := mr.ByConfig[config.Baseline]
	run := mr.ByConfig[cfg]
	if base == nil || run == nil || base.MeanStd() == 0 {
		return 0
	}
	return run.MeanStd() / base.MeanStd()
}

// RunMix executes a mix under all five configurations, deriving deadlines
// from the Baseline pass and calibrating StaticBoth per the paper's
// methodology.
func (r *Runner) RunMix(mix Mix) (*MixResult, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	res := &MixResult{Mix: mix, ByConfig: map[config.Name]*RunResult{}}

	// 1. Baseline: free contention; defines the deadlines.
	base, deadlines, targets, err := r.Baseline(mix)
	if err != nil {
		return nil, fmt.Errorf("baseline %s: %w", mix.Name, err)
	}
	applyDeadlines(base, deadlines)
	res.Deadlines = deadlines
	res.ByConfig[config.Baseline] = base

	// 2. StaticFreq: BG pinned to the slowest level.
	sf, err := r.Run(mix, RunParams{Config: config.StaticFreq, Deadlines: deadlines})
	if err != nil {
		return nil, fmt.Errorf("staticfreq %s: %w", mix.Name, err)
	}
	res.ByConfig[config.StaticFreq] = sf

	// 3. DirigentFreq: fine control only.
	df, err := r.Run(mix, RunParams{Config: config.DirigentFreq, Targets: targets, Deadlines: deadlines, BGLevel: -1})
	if err != nil {
		return nil, fmt.Errorf("dirigentfreq %s: %w", mix.Name, err)
	}
	res.ByConfig[config.DirigentFreq] = df

	// 4. Dirigent: fine + coarse.
	dir, err := r.Run(mix, RunParams{Config: config.Dirigent, Targets: targets, Deadlines: deadlines, BGLevel: -1, ExtraWarmup: r.ConvergenceWarmup})
	if err != nil {
		return nil, fmt.Errorf("dirigent %s: %w", mix.Name, err)
	}
	res.ByConfig[config.Dirigent] = dir

	// 5. StaticBoth: static partition from Dirigent's converged heuristic
	// (the paper verified it near-optimal) + the best static BG frequency
	// found by offline search.
	level, err := r.calibrateStaticBGLevel(mix, dir.FGWays, deadlines)
	if err != nil {
		return nil, fmt.Errorf("staticboth calibration %s: %w", mix.Name, err)
	}
	sb, err := r.Run(mix, RunParams{Config: config.StaticBoth, Deadlines: deadlines, FGWays: dir.FGWays, BGLevel: level})
	if err != nil {
		return nil, fmt.Errorf("staticboth %s: %w", mix.Name, err)
	}
	res.ByConfig[config.StaticBoth] = sb
	return res, nil
}

// ladder returns the DVFS ladder of the runner's machine class and the
// grades Dirigent uses on it (policy.GradesForLevels).
func (r *Runner) ladder() ([]float64, []int, error) {
	cfg, err := machine.ClassConfig(r.MachineClass)
	if err != nil {
		return nil, nil, err
	}
	return cfg.FreqLevelsGHz, policy.GradesForLevels(len(cfg.FreqLevelsGHz)), nil
}

// calibrateStaticBGLevel searches the Dirigent grades of the runner's
// machine class from fastest to slowest for the highest static BG frequency
// whose calibration run meets the deadline on EVERY execution. A static
// configuration cannot adapt, so it must be provisioned for the worst case
// observed offline — this is precisely the over-provisioning the paper
// identifies as the cost of static schemes (§3.1): resources are reserved
// so that the tail fits, and are wasted whenever tasks finish early.
func (r *Runner) calibrateStaticBGLevel(mix Mix, fgWays int, deadlines []float64) (int, error) {
	_, grades, err := r.ladder()
	if err != nil {
		return 0, err
	}
	for gi := len(grades) - 1; gi >= 1; gi-- {
		run, err := r.Run(mix, RunParams{
			Config:     config.StaticBoth,
			Deadlines:  deadlines,
			FGWays:     fgWays,
			BGLevel:    grades[gi],
			Executions: r.CalibExecutions,
		})
		if err != nil {
			return 0, err
		}
		if run.MinSuccessRate() >= 1 {
			return grades[gi], nil
		}
	}
	return grades[0], nil
}

// Deadlines derives the paper's per-stream deadlines (µ + 0.3·σ over the
// Baseline pass, §5.4) and the equivalent runtime targets. Every caller
// that sets deadlines from a Baseline pass goes through it, so the goldens
// pin one floating-point expression.
func Deadlines(base *RunResult) ([]float64, []time.Duration) {
	deadlines := make([]float64, len(base.Streams))
	targets := make([]time.Duration, len(base.Streams))
	for i, s := range base.Streams {
		deadlines[i] = s.Summary.Mean + float64(DeadlineSigma*s.Summary.Std)
		targets[i] = time.Duration(deadlines[i] * float64(time.Second))
	}
	return deadlines, targets
}

func applyDeadlines(rr *RunResult, deadlines []float64) {
	for i := range rr.Streams {
		s := &rr.Streams[i]
		s.Deadline = deadlines[i]
		ok := 0
		for _, d := range s.Durations {
			if d <= deadlines[i] {
				ok++
			}
		}
		if len(s.Durations) > 0 {
			s.SuccessRate = float64(ok) / float64(len(s.Durations))
		}
	}
}

// Run takes one run to its goal: StartSession, RunExecutions up to the
// session's goal within the runner's time limit, then Collect. Every batch
// sweep and the scenario suite run through it. It refuses a run whose
// executions would all be warmup.
func (r *Runner) Run(mix Mix, p RunParams) (*RunResult, error) {
	s, err := r.StartSession(mix, p)
	if err != nil {
		return nil, err
	}
	if s.p.Executions <= r.Warmup {
		return nil, fmt.Errorf("experiment: %d executions leave none after the %d warmup executions", s.p.Executions, r.Warmup)
	}
	if err := s.RunExecutions(s.Goal(), sim.Time(r.TimeLimit)); err != nil {
		return nil, err
	}
	return s.Collect()
}

// Baseline runs the §5.4 Baseline pass (free contention, the runner's
// executions) and derives its per-stream deadlines and runtime targets
// with Deadlines. The run's own Deadline and SuccessRate stay unset.
func (r *Runner) Baseline(mix Mix) (*RunResult, []float64, []time.Duration, error) {
	base, err := r.Run(mix, RunParams{Config: config.Baseline, BGLevel: -1})
	if err != nil {
		return nil, nil, nil, err
	}
	deadlines, targets := Deadlines(base)
	return base, deadlines, targets, nil
}

// standalone runs FG benchmark fg alone on the machine (mix "<fg> alone",
// Baseline, half the runner's executions): the reference Fig. 4, Fig. 15
// and the resilience sweep measure against.
func (r *Runner) standalone(fg string) (*RunResult, error) {
	return r.Run(Mix{Name: fg + " alone", FG: []string{fg}},
		RunParams{Config: config.Baseline, BGLevel: -1, Executions: r.Executions / 2})
}

// durationsSeconds converts telemetry durations to the seconds the
// statistics layer works in.
func durationsSeconds(durs []time.Duration) []float64 {
	out := make([]float64, len(durs))
	for i, d := range durs {
		out[i] = d.Seconds()
	}
	return out
}

// RunMixes runs several mixes concurrently (each mix is an independent
// simulated machine; results are deterministic regardless of parallelism)
// and returns results in input order.
func (r *Runner) RunMixes(mixes []Mix) ([]*MixResult, error) {
	return FanOut(len(mixes), func(i int) (*MixResult, error) {
		res, err := r.RunMix(mixes[i])
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", mixes[i].Name, err)
		}
		return res, nil
	})
}

// FanOut runs fn(0), …, fn(n-1) on min(n, MaxParallel) goroutines, each
// taking the next index in ascending order, and returns the results in
// index order, or the error of the lowest failing index. It is the one
// bounded fan-out every concurrent sweep (mixes, policy sweeps, resilience
// jobs, prediction probes, the scenario suite) goes through; at width 1 it
// runs the indices in order.
func FanOut[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, MaxParallel()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warnMaxParallel limits the bad-DIRIGENT_MAX_PARALLEL warning to one line
// per process (MaxParallel is called once per sweep).
var warnMaxParallel sync.Once

// MaxParallel is the fan-out width: the DIRIGENT_MAX_PARALLEL environment
// variable when set, otherwise the host CPU count. Results are deterministic
// regardless of the width — the knob only trades wall-clock time against
// load (e.g. capping a shared CI box, or widening past GOMAXPROCS when runs
// block on nothing). Values below 1 are clamped to 1 — a zero-capacity
// fan-out semaphore would block every sweep goroutine forever — and
// unparsable values fall back to the CPU count; both warn once on stderr.
func MaxParallel() int {
	if s := os.Getenv("DIRIGENT_MAX_PARALLEL"); s != "" {
		n, err := strconv.Atoi(s)
		switch {
		case err != nil:
			warnMaxParallel.Do(func() {
				fmt.Fprintf(os.Stderr, "experiment: DIRIGENT_MAX_PARALLEL=%q is not an integer; using GOMAXPROCS\n", s)
			})
		case n < 1:
			warnMaxParallel.Do(func() {
				fmt.Fprintf(os.Stderr, "experiment: DIRIGENT_MAX_PARALLEL=%d clamped to 1\n", n)
			})
			return 1
		default:
			return n
		}
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}
