package main

import (
	"fmt"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/core"
	"dirigent/internal/experiment"
	"dirigent/internal/load"
	"dirigent/internal/machine"
	"dirigent/internal/mem"
	"dirigent/internal/perf"
	"dirigent/internal/policy"
	"dirigent/internal/scenario"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// Layer probes: timed calls into each module's exported entry points, with
// inputs shaped like the scenarios' (the way the root bench_test.go
// benchmarks shape theirs). Every traced run executes the same probes, so a
// per-layer unit cost means the same thing on every workload. Each probe
// runs probeReps batches and reports the median per-call time, corrected
// for host drift like the end-to-end timings (the raw median is printed
// beside it).

const probeReps = 5

// probeScenarios are the sessions the policy, runtime, telemetry and
// experiment probes run: one xeon-e5 scenario per policy.
var probeScenarios = map[string]string{
	policy.NameDirigent: "xeon-ferret-streamcluster-dirigent",
	policy.NameRTGang:   "xeon-bodytrack-batch-rtgang",
	policy.NameCORDLike: "xeon-raytrace-fluid-cordlike",
}

// probeSink keeps probe results live so the compiler keeps the calls.
var probeSink float64

// probeRow is one probe's outcome.
type probeRow struct {
	name      string
	unit      string
	corr, raw float64
	note      string
}

// probeResults are the unit costs every traced run reports.
type probeResults struct {
	rows []probeRow
	// by name, corrected, for the attribution model.
	cost map[string]float64
	// non2xx counts the server probe's non-2xx replies.
	non2xx int
}

func (p *probeResults) add(name, unit string, corr, raw float64, note string) {
	p.rows = append(p.rows, probeRow{name, unit, corr, raw, note})
	p.cost[name] = corr
}

func (p *probeResults) report(rep *report) {
	for _, r := range p.rows {
		rep.perLayer(r.name, r.unit, r.corr, fmt.Sprintf("raw %.4g; %s", r.raw, r.note))
	}
}

// timed runs batch probeReps times; batch returns how many calls it made.
// It returns the median corrected and raw time per call in unit ns.
func timed(tr *tracer, ref *refSampler, name string, unit time.Duration, batch func() int) (corr, raw float64) {
	var cs, rs []float64
	for i := 0; i < probeReps; i++ {
		id := tr.begin("probe."+name, "", 0)
		t0 := time.Now()
		n := batch()
		t1 := time.Now()
		tr.end(id)
		ref.sample()
		per := float64(t1.Sub(t0)) / float64(n) / float64(unit)
		rs = append(rs, per)
		cs = append(cs, per*ref.scale(t0, t1))
	}
	return median(cs), median(rs)
}

func runProbes(o options, tr *tracer, ref *refSampler) (*probeResults, error) {
	costs := &probeResults{cost: map[string]float64{}}
	q := sim.DefaultQuantum
	probeMicro(costs, tr, ref, q)
	if err := probeMachines(costs, tr, ref); err != nil {
		return nil, err
	}
	if err := probeSessions(o, costs, tr, ref); err != nil {
		return nil, err
	}
	st, err := probeServer(costs)
	if err != nil {
		return nil, err
	}
	costs.non2xx = st.non2xx
	spec, err := load.LoadSpec(o.path(churnSpec))
	if err != nil {
		return nil, err
	}
	c, r := timed(tr, ref, "load.synthesize", time.Millisecond, func() int {
		tr, err := load.Synthesize(spec, 42)
		if err == nil {
			probeSink += float64(len(tr.Events))
		}
		return 1
	})
	costs.add("load.synthesize_ms", "ms", c, r, "load.Synthesize on "+churnSpec)
	return costs, nil
}

// probeMicro times the per-quantum primitives on scenario-shaped inputs.
func probeMicro(costs *probeResults, tr *tracer, ref *refSampler, q time.Duration) {
	const n = 200000
	rng := sim.NewRand(42)
	c, r := timed(tr, ref, "sim.LogNormal", 1, func() int {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += rng.LogNormal(0, 0.05)
		}
		probeSink += acc
		return n
	})
	costs.add("sim.lognormal_ns", "ns", c, r, "sim.Rand.LogNormal(0, 0.05)")
	c, r = timed(tr, ref, "sim.Norm", 1, func() int {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += rng.Norm()
		}
		probeSink += acc
		return n
	})
	costs.add("sim.norm_ns", "ns", c, r, "sim.Rand.Norm")

	prog := workload.MustProgram(workload.MustByName("ferret"))
	step := workload.MustByName("ferret").TotalInstructions() / 4000
	c, r = timed(tr, ref, "workload.Phase", 1, func() int {
		acc := 0.0
		for i := 0; i < n; i++ {
			prog.Advance(step)
			acc += prog.Phase().BaseCPI
		}
		probeSink += acc
		return n
	})
	costs.add("workload.phase_ns", "ns", c, r, "Program.Advance+Phase, ferret, 4000 quanta per pass")

	// Six tasks on the paper's 20-way LLC, as in BenchmarkLLCApply.
	llc := cache.MustNew(cache.DefaultConfig())
	traffic := make([]cache.Traffic, 6)
	refs := make([]*cache.TaskRef, 6)
	for i := range traffic {
		if err := llc.Register(i, 0); err != nil {
			panic(err) // fresh LLC, distinct task ids
		}
		refs[i] = llc.Ref(i)
		traffic[i] = cache.Traffic{Task: i, Accesses: 5000, MissRate: 0.4, WSS: 8 << 20, Ref: refs[i]}
	}
	c, r = timed(tr, ref, "cache.ApplyFast", 1, func() int {
		for i := 0; i < n/10; i++ {
			llc.ApplyFast(q, traffic)
		}
		return n / 10
	})
	costs.add("cache.apply_ns", "ns", c, r, "LLC.ApplyFast, 6 tasks")
	c, r = timed(tr, ref, "cache.HitRateRef", 1, func() int {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += llc.HitRateRef(refs[i%6], 8<<20, 0.9)
		}
		probeSink += acc
		return n
	})
	costs.add("cache.hitrate_ns", "ns", c, r, "LLC.HitRateRef")

	m1 := mem.MustNew(mem.DefaultConfig())
	c, r = timed(tr, ref, "mem.Apply", 1, func() int {
		for i := 0; i < n; i++ {
			m1.Apply(float64(2e6+i%1000), q)
		}
		probeSink += m1.LastStretch()
		return n
	})
	costs.add("mem.apply_ns", "ns", c, r, "Memory.Apply, single pool")
	ds, err := machine.ClassConfig("dual-socket")
	if err != nil {
		panic(err) // a shipped class
	}
	m2 := mem.MustNew(ds.Memory)
	demands := []float64{1e6, 1.5e6}
	c, r = timed(tr, ref, "mem.ApplySockets", 1, func() int {
		for i := 0; i < n; i++ {
			demands[0] = float64(1e6 + i%1000)
			m2.ApplySockets(demands, q)
		}
		probeSink += m2.LastStretch()
		return n
	})
	costs.add("mem.apply_sockets_ns", "ns", c, r, "Memory.ApplySockets, dual-socket")

	ctr := perf.MustNew(6)
	handles := make([]*perf.Sample, 6)
	for i := range handles {
		handles[i] = ctr.Handle(i)
	}
	delta := perf.Sample{Instructions: 5e5, Cycles: 5e5, LLCAccesses: 5000, LLCMisses: 2000}
	c, r = timed(tr, ref, "perf.ChargeRef", 1, func() int {
		for i := 0; i < n; i++ {
			ctr.ChargeRef(handles[i%6], i%6, delta)
		}
		return n
	})
	costs.add("perf.charge_ns", "ns", c, r, "Counters.ChargeRef")
}

// probeMachines times bare-machine StepN per class (one task per core) and
// a Baseline colocation's StepN.
func probeMachines(costs *probeResults, tr *tracer, ref *refSampler) error {
	names := []string{"ferret", "bwaves", "rs", "lbm", "pca", "namd"}
	for _, class := range machine.ClassNames() {
		cfg, err := machine.ClassConfig(class)
		if err != nil {
			return err
		}
		cfg.Seed = 1
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		for c := 0; c < cfg.Cores; c++ {
			b := workload.MustByName(names[c%len(names)])
			if _, err := m.Launch(b.Name, workload.MustProgram(b), c, 0); err != nil {
				return err
			}
		}
		c, r := timed(tr, ref, "machine.StepN", 1, func() int {
			done := 0
			for done < 20000 {
				_, k := m.StepN(64)
				done += k
			}
			return done
		})
		costs.add("machine.quantum_ns."+class, "ns", c, r, fmt.Sprintf("Machine.StepN, %d busy cores", cfg.Cores))
		costs.cost["machine.task_quantum_ns."+class] = c / float64(cfg.Cores)
	}

	cfg := machine.DefaultConfig()
	cfg.Seed = 1
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	mix := experiment.Mix{Name: "probe", FG: []string{"ferret", "streamcluster"}, BG: []string{"lbm", "rs", "pca", "namd"}}
	fg, err := mix.FGBenchmarks()
	if err != nil {
		return err
	}
	bg, err := mix.BGSpecs()
	if err != nil {
		return err
	}
	colo, err := sched.New(m, fg, bg, sched.Options{Seed: 1})
	if err != nil {
		return err
	}
	c, r := timed(tr, ref, "sched.StepN", 1, func() int {
		done := 0
		for done < 20000 {
			done += colo.StepN(64)
		}
		return done
	})
	costs.add("sched.quantum_ns", "ns", c, r, "Baseline Colocation.StepN, xeon-e5, 2 FG + 4 BG")
	return nil
}

// eventLog captures a session's event stream for the telemetry probe.
type eventLog struct {
	single  []telemetry.Event
	batches [][]telemetry.Event
	order   []int // >=0: index into single; <0: -(index+1) into batches
}

func (l *eventLog) Enabled(telemetry.Kind) bool { return true }

func (l *eventLog) Record(ev telemetry.Event) {
	l.order = append(l.order, len(l.single))
	l.single = append(l.single, ev)
}

func (l *eventLog) RecordQuantumSteps(evs []telemetry.Event) {
	l.order = append(l.order, -(len(l.batches) + 1))
	l.batches = append(l.batches, append([]telemetry.Event(nil), evs...))
}

// probeSessions times profiling, the predictor, each policy's tick, a
// runtime quantum, telemetry recording and the experiment entry points.
func probeSessions(o options, costs *probeResults, tr *tracer, ref *refSampler) error {
	var specs []scenario.Spec
	for _, name := range wrappedPolicies {
		sp, err := scenario.Load(o.path("scenarios/" + probeScenarios[name] + ".json"))
		if err != nil {
			return err
		}
		specs = append(specs, sp)
	}

	// Profiling: every FG benchmark of the scenarios, on a fresh runner.
	fgs := []string{"ferret", "streamcluster", "bodytrack", "raytrace", "fluidanimate"}
	var profCorr, profRaw []float64
	var ferret *core.Profile
	for i := 0; i < probeReps; i++ {
		r := experiment.NewRunner()
		for _, fg := range fgs {
			id := tr.begin("probe.core.Profile", fg, 0)
			t0 := time.Now()
			p, err := r.Profile(fg)
			t1 := time.Now()
			tr.end(id)
			ref.sample()
			if err != nil {
				return err
			}
			if fg == "ferret" {
				ferret = p
			}
			ms := float64(t1.Sub(t0)) / 1e6
			profRaw = append(profRaw, ms)
			profCorr = append(profCorr, ms*ref.scale(t0, t1))
		}
	}
	costs.add("core.profile_ms", "ms", median(profCorr), median(profRaw), "Runner.Profile, 5 FG benchmarks, fresh runner")

	// The predictor, replaying ferret's profile segment by segment.
	pred, err := core.NewPredictor(ferret, 0.2)
	if err != nil {
		return err
	}
	segs := ferret.Segments
	c, r := timed(tr, ref, "core.Predictor.Observe", 1, func() int {
		now, progress := sim.Time(0), 0.0
		n := 0
		for rep := 0; rep < 200; rep++ {
			pred.BeginExecution(now)
			progress = 0
			for _, s := range segs {
				now += sim.Time(s.Duration)
				progress += s.Progress
				if err := pred.Observe(now, progress); err != nil {
					panic(err) // progress only grows
				}
				n++
			}
			if err := pred.FinishExecution(now); err != nil {
				panic(err)
			}
		}
		return n
	})
	costs.add("core.observe_ns", "ns", c, r, "Predictor.Observe over ferret's profile")
	pred.BeginExecution(0)
	half := segs[:len(segs)/2]
	now, progress := sim.Time(0), 0.0
	for _, s := range half {
		now += sim.Time(s.Duration)
		progress += s.Progress
		if err := pred.Observe(now, progress); err != nil {
			return err
		}
	}
	c, r = timed(tr, ref, "core.Predictor.Predict", 1, func() int {
		acc := 0.0
		for i := 0; i < 100000; i++ {
			t, err := pred.Predict(now)
			if err != nil {
				panic(err)
			}
			acc += float64(t)
		}
		probeSink += acc
		return 100000
	})
	costs.add("core.predict_ns", "ns", c, r, "Predictor.Predict mid-execution")

	// One session per policy under the timing wrapper.
	runs, err := setupScenarios(specs, tr, 0, ref)
	if err != nil {
		return err
	}
	var startMs, startRaw, collectMs, collectRaw, baseMs, baseRaw, quantumC, quantumR []float64
	var log *eventLog
	for _, sr := range runs {
		baseRaw = append(baseRaw, float64(sr.base.wall)/1e6)
		baseMs = append(baseMs, float64(sr.base.wall)/1e6*sr.base.scale)
	}
	tickN := map[string]int{}
	tickRaw, tickCorr := map[string]float64{}, map[string]float64{}
	for rep := 0; rep < 2; rep++ {
		for i, sr := range runs {
			name := wrappedPolicies[i]
			p := sr.params
			p.Policy = wrapped(name)
			if rep == 0 && name == policy.NameDirigent {
				log = &eventLog{}
				p.Extra = log
			}
			tally.reset(tr, 0)
			out, err := driveSession(sr.runner, sr.mix, p, sessionHooks{tr: tr, req: "probe/" + name, ref: ref})
			if err != nil {
				return err
			}
			startRaw = append(startRaw, float64(out.startD)/1e6)
			startMs = append(startMs, float64(out.startD)/1e6*out.scale)
			collectRaw = append(collectRaw, float64(out.collectD)/1e6)
			collectMs = append(collectMs, float64(out.collectD)/1e6*out.scale)
			ticks, _, ns := tally.snapshot()
			tickN[name] += ticks[name]
			tickRaw[name] += ns[name]
			tickCorr[name] += ns[name] * out.scale
			if name == policy.NameDirigent {
				quantumR = append(quantumR, float64(out.runD)/out.quanta)
				quantumC = append(quantumC, float64(out.runD)/out.quanta*out.scale)
			}
		}
	}
	for _, name := range wrappedPolicies {
		if n := float64(tickN[name]); n > 0 {
			costs.add("policy."+name+".tick_ns", "ns", tickCorr[name]/n, tickRaw[name]/n,
				fmt.Sprintf("wrapper-timed Tick, %d ticks of %s", tickN[name], probeScenarios[name]))
		}
	}
	tally.reset(nil, 0)
	costs.add("core.quantum_ns", "ns", median(quantumC), median(quantumR), "Dirigent session RunExecutions ÷ quanta")
	costs.add("experiment.start_ms", "ms", median(startMs), median(startRaw), "StartSession, 3 probe scenarios ×2")
	costs.add("experiment.collect_ms", "ms", median(collectMs), median(collectRaw), "Collect, 3 probe scenarios ×2")
	costs.add("experiment.baseline_ms", "ms", median(baseMs), median(baseRaw), "Baseline session, 3 probe scenarios")

	// Telemetry: replay the captured stream into fresh aggregators.
	events := len(log.single)
	for _, b := range log.batches {
		events += len(b)
	}
	c, r = timed(tr, ref, "telemetry.Aggregator", 1, func() int {
		agg := telemetry.NewAggregator()
		for _, k := range log.order {
			if k >= 0 {
				agg.Record(log.single[k])
			} else {
				agg.RecordQuantumSteps(log.batches[-k-1])
			}
		}
		probeSink += float64(agg.Executions())
		return events
	})
	costs.add("telemetry.record_ns", "ns", c, r, fmt.Sprintf("Aggregator, %d events of one Dirigent session", events))
	return nil
}
