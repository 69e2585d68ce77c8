package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/scenario"
)

// The sessions workload: a batch closed loop on one goroutine over the nine
// shipped scenarios. Set-up profiles each scenario's FG benchmarks and runs
// its Baseline pass (deadlines µ+0.3σ and the BG denominator) — the first
// half of scenario.RunSpec. The measured phase runs the policy sessions in
// passes over the nine: the first pass with the scenarios' own seeds, later
// passes with seeds drawn from the workload seed.

// setupReps is how many times set-up runs; setup_s is their median. The
// first repetition runs cold and is often the slowest.
const setupReps = 5

// setupTimes collects the set-up repetitions' durations in seconds.
type setupTimes struct{ raw, corr []float64 }

// add records a set-up that ran over [t0, t1], corrected by the reference
// around it.
func (s *setupTimes) add(t0, t1 time.Time, ref *refSampler) {
	d := t1.Sub(t0).Seconds()
	s.raw = append(s.raw, d)
	s.corr = append(s.corr, d*ref.scale(t0, t1))
}

// report records setup_s, the median of the corrected repetitions, and
// prints every repetition and the raw median beside it.
func (s *setupTimes) report(rep *report) {
	reps := make([]string, len(s.corr))
	for i, v := range s.corr {
		reps[i] = fmt.Sprintf("%.4g", v)
	}
	rep.endToEnd("setup_s", "s", median(s.corr), fmt.Sprintf("median of %d, drift-corrected: %s", len(s.corr), strings.Join(reps, " ")))
	rep.info("setup_s.raw", "s", median(s.raw), "uncorrected")
}

// scenarioRun is one scenario after set-up: ready to run its policy
// session.
type scenarioRun struct {
	spec   scenario.Spec
	runner *experiment.Runner
	mix    experiment.Mix
	params experiment.RunParams
	baseBG float64
	base   *sessionOut
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// setupScenarios is the sessions set-up for every spec, on one goroutine.
func setupScenarios(specs []scenario.Spec, tr *tracer, parent int, ref *refSampler) ([]scenarioRun, error) {
	out := make([]scenarioRun, len(specs))
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		r := experiment.NewRunner()
		r.MachineClass = sp.MachineClass
		r.Executions = orDefault(sp.Executions, scenario.DefaultExecutions)
		r.Warmup = orDefault(sp.Warmup, scenario.DefaultWarmup)
		r.ConvergenceWarmup = orDefault(sp.ConvergenceWarmup, scenario.DefaultConvergenceWarmup)
		mix := experiment.Mix{Name: sp.Name, FG: sp.Mix.FG, BG: sp.Mix.BG}
		for _, fg := range sp.Mix.FG {
			id := tr.begin("core.Profile", sp.Name, parent)
			_, err := r.Profile(fg)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: profile %s: %w", sp.Name, fg, err)
			}
		}
		base, err := driveSession(r, mix, experiment.RunParams{
			Config: config.Baseline, BGLevel: -1, Executions: r.Executions,
		}, sessionHooks{tr: tr, parent: parent, req: sp.Name + "/baseline", ref: ref})
		if err != nil {
			return nil, err
		}
		// The paper's deadline rule, exactly as scenario.RunSpec applies it.
		deadlines := make([]float64, len(base.rr.Streams))
		targets := make([]time.Duration, len(base.rr.Streams))
		for j, s := range base.rr.Streams {
			deadlines[j] = s.Summary.Mean + experiment.DeadlineSigma*s.Summary.Std
			targets[j] = time.Duration(deadlines[j] * float64(time.Second))
		}
		out[i] = scenarioRun{
			spec: sp, runner: r, mix: mix, baseBG: base.rr.BGInstrRate, base: base,
			params: experiment.RunParams{
				Config:      config.Dirigent,
				Policy:      sp.Policy,
				Targets:     targets,
				Deadlines:   deadlines,
				BGLevel:     -1,
				Executions:  r.Executions,
				ExtraWarmup: r.ConvergenceWarmup,
				Faults:      sp.Faults.Plan(),
			},
		}
	}
	return out, nil
}

// sessionSeeds draws the seeds of passes 1…passes-1 from the workload seed
// (pass 0 keeps the scenarios' own seeds, written as 0). The same seed
// always gives the same list.
func sessionSeeds(seed uint64, passes, n int) [][]uint64 {
	g := newSplitmix(seed)
	out := make([][]uint64, passes)
	out[0] = make([]uint64, n)
	for p := 1; p < passes; p++ {
		out[p] = make([]uint64, n)
		for i := range out[p] {
			s := g.next()
			if s == 0 {
				s = 1 // 0 would mean "the scenario's own seed"
			}
			out[p][i] = s
		}
	}
	return out
}

// sessionsPhase is one measured phase's outcome.
type sessionsPhase struct {
	first    []*sessionOut // pass 0, in scenario order
	sessions int
	attempts int
	failures int
	errs     []string
	wall     time.Duration
	simS     float64
	corrS    float64 // Σ corrected session wall, seconds
	rawS     float64 // Σ session wall, seconds
	rounds   []float64
	roundsC  []float64
	// firstTicks and firstActuated are the policy tally at the end of pass
	// 0 (traced phases only).
	firstTicks, firstActuated map[string]int
}

// maxPasses bounds the seed list; a pass takes about 1.5 s on a 2.1 GHz
// Xeon, so this is never reached within the 180-s run limit.
const maxPasses = 1000

// runSessionsPhase runs whole passes until seconds have elapsed. With
// traced set, sessions run under the timing policy wrapper and the
// counting recorder, and pass-0 event counts are returned in counts.
func runSessionsPhase(runs []scenarioRun, seeds [][]uint64, seconds float64, ref *refSampler, tr *tracer, counts *eventCounter) *sessionsPhase {
	ph := &sessionsPhase{}
	start := time.Now()
	for pass := 0; pass < len(seeds) && (pass == 0 || time.Since(start).Seconds() < seconds); pass++ {
		for i, sr := range runs {
			p := sr.params
			p.Seed = seeds[pass][i]
			req := fmt.Sprintf("%s#%d", sr.spec.Name, pass)
			if tr != nil {
				p.Policy = wrapped(p.Policy)
				if pass == 0 {
					p.Extra = counts
				}
			}
			ph.attempts++
			out, err := driveSession(sr.runner, sr.mix, p, sessionHooks{tr: tr, req: req, ref: ref, byRounds: true})
			if err != nil {
				ph.failures++
				ph.errs = append(ph.errs, err.Error())
				if pass == 0 {
					ph.first = append(ph.first, nil)
				}
				continue
			}
			if pass == 0 {
				ph.first = append(ph.first, out)
			}
			ph.sessions++
			ph.simS += out.simS
			ph.rawS += out.wall.Seconds()
			ph.corrS += out.corr / 1e9
			ph.rounds = append(ph.rounds, out.rounds...)
			ph.roundsC = append(ph.roundsC, out.roundsC...)
		}
		if pass == 0 && tr != nil {
			ph.firstTicks, ph.firstActuated, _ = tally.snapshot()
		}
	}
	ph.wall = time.Since(start)
	return ph
}

func runSessions(o options, ref *refSampler, rep *report) error {
	specs, err := scenario.LoadDir(o.path("scenarios"))
	if err != nil {
		return err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up, repeated; the last repetition's runners are measured.
	var runs []scenarioRun
	var setups setupTimes
	for i := 0; i < setupReps; i++ {
		id := tr.begin("bench.Setup", "", 0)
		t0 := time.Now()
		runs, err = setupScenarios(specs, tr, id, ref)
		t1 := time.Now()
		tr.end(id)
		if err != nil {
			return err
		}
		ref.sample()
		setups.add(t0, t1, ref)
	}
	seeds := sessionSeeds(o.seed, maxPasses, len(runs))
	rep.info("peak_rss_mb.setup", "MiB", peakRSSMiB(), "VmHWM at the end of set-up")

	ph := runSessionsPhase(runs, seeds, o.phaseSeconds(), ref, nil, nil)
	// Read before the check, which runs the suite again on runners of its
	// own: the bounded peak is that of set-up and the measured phase.
	rss := peakRSSMiB()
	rep.attempted, rep.failed = ph.attempts, ph.failures
	for _, e := range ph.errs {
		rep.fail("session failed: %s", e)
	}
	checkSuite(specs, runs, ph.first, rep)

	var q qosTally
	for i, out := range ph.first {
		if out != nil {
			q.add(out.rr, runs[i].baseBG)
		}
	}
	rate := ph.simS / ph.corrS
	if !o.trace {
		setups.report(rep)
		rep.endToEnd("sim_rate", "sim-s/s", rate, fmt.Sprintf("%d sessions, drift-corrected", ph.sessions))
		rep.info("sim_rate.raw", "sim-s/s", ph.simS/ph.rawS, fmt.Sprintf("phase wall %.1fs", ph.wall.Seconds()))
		rep.pct("latency_p50_ms", ph.roundsC, 0.50)
		rep.pctInfo("latency_p90_ms", ph.roundsC, 0.90, "corrected, unbounded")
		rep.pctInfo("latency_p99_ms", ph.roundsC, 0.99, "corrected, unbounded")
		for _, p := range []float64{0.5, 0.9, 0.99} {
			rep.pctInfo(fmt.Sprintf("latency_p%g_ms.raw", p*100), ph.rounds, p, "uncorrected")
		}
		rep.endToEnd("qos_success", "share", q.success(), fmt.Sprintf("pass 0: %d of %d executions", q.met, q.total))
		rep.endToEnd("bg_throughput", "ratio", q.bgThroughput(), "pass 0, mean over scenarios")
		rep.endToEnd("peak_rss_mb", "MiB", rss, "VmHWM after the measured phase")
		rep.info("peak_rss_mb.checked", "MiB", peakRSSMiB(), "VmHWM after the output check")
		return nil
	}

	// Traced run: the same phase again with tracing on, then the probes.
	counts := newEventCounter()
	tally.reset(tr, 0)
	traced := runSessionsPhase(runs, seeds, o.phaseSeconds(), ref, tr, counts)
	for _, e := range traced.errs {
		rep.fail("traced session failed: %s", e)
	}
	checkObservational(ph.first, traced.first, rep)

	fc := newFixedCounts()
	fc.events = counts
	fc.ticks, fc.actuated = traced.firstTicks, traced.firstActuated
	for _, out := range traced.first {
		if out != nil {
			fc.addSession(out)
		}
	}
	return finishTraced(o, ref, tr, rep, fc, rate, traced.simS/traced.corrS)
}

// checkSuite compares pass 0 with scenario.RunSuite, which runs the suite
// on its own: QoS success and BG throughput must match exactly.
func checkSuite(specs []scenario.Spec, runs []scenarioRun, first []*sessionOut, rep *report) {
	suite, err := scenario.RunSuite(specs)
	if err != nil {
		rep.fail("scenario.RunSuite: %v", err)
		return
	}
	for i, res := range suite.Results {
		out := first[i]
		if out == nil {
			continue
		}
		qos := out.rr.MinSuccessRate()
		bg := out.rr.BGInstrRate / runs[i].baseBG
		//lint:ignore floateq the check is for exact reproduction: both sides come from the same bit-identical runs
		if qos != res.QoSSuccess || bg != res.BGThroughput {
			rep.fail("%s: pass 0 gives qos %v bg %v, RunSuite %v %v", res.Name, qos, bg, res.QoSSuccess, res.BGThroughput)
		}
	}
}

// checkObservational requires the traced pass 0 to reproduce the untraced
// one byte for byte.
func checkObservational(untraced, traced []*sessionOut, rep *report) {
	if len(untraced) != len(traced) {
		rep.fail("traced pass has %d sessions, untraced %d", len(traced), len(untraced))
		return
	}
	for i := range untraced {
		if untraced[i] == nil || traced[i] == nil {
			continue
		}
		if !bytes.Equal(untraced[i].js, traced[i].js) {
			rep.fail("tracing changed the result of %s", untraced[i].rr.Mix.Name)
		}
	}
}
