package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/load"
	"dirigent/internal/server"
)

// The serve-tenants workload: a closed loop of nproc clients, one
// connection each, against an in-process dirigent-serve. Each client takes
// the next create of a churn-500 trace synthesized from the workload seed,
// runs the tenant to its goal (completion detected through the API),
// fetches /result and deletes the tenant. Set-up synthesizes the trace,
// starts the server, warms each template's runner and profile, and runs
// one Baseline tenant per template for the BG denominator.

const churnSpec = "loadspecs/churn-500.json"

const (
	// churnHorizonS stretches the spec's horizon so one trace holds more
	// creates than a 20-s run consumes (about 3300; a run that needs more
	// reuses them under new labels). A longer horizon only inflates
	// set-up: at 1000 s, synthesis set the run's peak RSS.
	churnHorizonS = 300
	// fixedTenants is the prefix of the create sequence over which QoS,
	// throughput and the counts are computed: every run completes it, so
	// those figures do not depend on host speed.
	fixedTenants = 200
	// maxStretch bounds how far past --seconds the phase runs to complete
	// the fixed tenants.
	maxStretch = 3
	// checkSample is how many fixed tenants are re-run directly through
	// experiment and compared byte for byte with their /result.
	checkSample = 6
)

// churnSetup is the serve-tenants set-up's output.
type churnSetup struct {
	spec     load.Spec
	creates  []load.Event
	base     string
	shutdown func() error
	// baseBG is each template's Baseline BG instruction rate.
	baseBG map[string]float64
}

// createRequest builds the create for a trace event, as dirigent-load
// does: the tenant label names the mix and so seeds the simulation.
func createRequest(spec load.Spec, ev load.Event, label string) server.CreateTenantRequest {
	t := spec.Template(ev.Template)
	r := server.CreateTenantRequest{
		Name:         label,
		Mix:          server.MixSpec{Name: label, FG: t.Mix.FG, BG: t.Mix.BG},
		Config:       t.ConfigName(),
		Policy:       t.Policy,
		MachineClass: t.MachineClass,
		Executions:   t.ExecutionGoal(),
	}
	for _, ms := range t.TargetMS {
		r.TargetsNS = append(r.TargetsNS, int64(ms*float64(time.Millisecond)))
		r.DeadlinesS = append(r.DeadlinesS, ms/1000)
	}
	return r
}

// runTenant drives one tenant lifecycle and returns its raw /result.
func runTenant(c *client, r server.CreateTenantRequest, parent int) ([]byte, error) {
	life := c.tr.begin("tenant.Lifecycle", r.Mix.Name, parent)
	defer c.tr.end(life)
	id, err := c.create(r, life)
	if err != nil {
		return nil, err
	}
	if _, err := c.waitDone(id, r.Mix.Name, life); err != nil {
		_ = c.remove(id, r.Mix.Name, life) // already failing; the first error is the one reported
		return nil, err
	}
	body, err := c.result(id, r.Mix.Name, life)
	if err != nil {
		return nil, err
	}
	return body, c.remove(id, r.Mix.Name, life)
}

// churnCreates synthesizes the trace for seed and returns its creates, in
// order: the tenant sequence the clients take from.
func churnCreates(spec load.Spec, seed uint64) ([]load.Event, error) {
	trace, err := load.Synthesize(spec, seed)
	if err != nil {
		return nil, err
	}
	var out []load.Event
	for _, ev := range trace.Events {
		if ev.Op == load.OpCreate {
			out = append(out, ev)
		}
	}
	if len(out) < fixedTenants {
		return nil, fmt.Errorf("%s: %d creates, need %d", churnSpec, len(out), fixedTenants)
	}
	return out, nil
}

// setupChurn synthesizes the trace, starts the server, and warms it.
func setupChurn(o options, tr *tracer, parent int) (*churnSetup, error) {
	spec, err := load.LoadSpec(o.path(churnSpec))
	if err != nil {
		return nil, err
	}
	spec.DurationS = churnHorizonS
	cs := &churnSetup{spec: spec, baseBG: map[string]float64{}}
	id := tr.begin("load.Synthesize", "", parent)
	cs.creates, err = churnCreates(spec, o.seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cs.base, cs.shutdown, err = startServer()
	if err != nil {
		return nil, err
	}
	c := newClient(cs.base, newHTTPStats())
	c.tr = tr
	defer c.close()
	for _, t := range spec.Tenants {
		ev := load.Event{Template: t.Name}
		warm := createRequest(spec, ev, "warm-"+t.Name)
		base := createRequest(spec, ev, "baseline-"+t.Name)
		base.Config, base.Policy = string(config.Baseline), ""
		for _, r := range []server.CreateTenantRequest{warm, base} {
			body, err := runTenant(c, r, parent)
			if err != nil {
				_ = cs.shutdown()
				return nil, fmt.Errorf("set-up tenant %s: %w", r.Mix.Name, err)
			}
			if r.Config == string(config.Baseline) {
				var rr experiment.RunResult
				if err := json.Unmarshal(body, &rr); err != nil {
					_ = cs.shutdown()
					return nil, fmt.Errorf("set-up tenant %s: %w", r.Mix.Name, err)
				}
				cs.baseBG[t.Name] = rr.BGInstrRate
			}
		}
	}
	return cs, nil
}

// tenantOut is one completed lifecycle.
type tenantOut struct {
	template string
	simS     float64
	raw      time.Duration // create sent → result received
	scale    float64
	// body and rr are kept for the fixed tenants only, so the benchmark's
	// own memory does not grow with the number of tenants a run completes.
	body []byte
	rr   experiment.RunResult
}

func newTenantOut(seq int, template string, body []byte, raw time.Duration, scale float64) (*tenantOut, error) {
	out := &tenantOut{template: template, raw: raw, scale: scale}
	if seq < fixedTenants {
		out.body = body
		if err := json.Unmarshal(body, &out.rr); err != nil {
			return nil, fmt.Errorf("tenant %d: result: %w", seq, err)
		}
		out.simS = out.rr.Elapsed.Seconds()
		return out, nil
	}
	var rr struct{ Elapsed time.Duration }
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, fmt.Errorf("tenant %d: result: %w", seq, err)
	}
	out.simS = rr.Elapsed.Seconds()
	return out, nil
}

// churnPhase is one measured phase's outcome.
type churnPhase struct {
	outs     []*tenantOut
	fixed    []*tenantOut // the first fixedTenants, by sequence
	attempts int
	failures int
	errs     []string
	wall     time.Duration
	scale    float64
	simS     float64
}

// clients is the closed loop's client count: one per CPU but one. With a
// client per CPU every CPU holds a tenant worker that steps without
// blocking, each API request then waits for Go's async preemption, and
// the turnaround tail measured host scheduling: over five runs the p99
// turnaround spread by 27% (interquartile range over median), against 4%
// with one CPU left for the API.
func clients() int {
	return max(1, runtime.NumCPU()-1)
}

// labelFor names the tenant at sequence i; creates are reused past the end
// of the trace with a pass suffix, so every tenant is a distinct run.
func labelFor(cs *churnSetup, i int) (load.Event, string) {
	ev := cs.creates[i%len(cs.creates)]
	if i < len(cs.creates) {
		return ev, ev.Tenant
	}
	return ev, fmt.Sprintf("%s.%d", ev.Tenant, i/len(cs.creates))
}

// runChurnPhase runs the closed loop until seconds have elapsed and the
// fixed tenants are done. With tr set, every request is a span.
func runChurnPhase(cs *churnSetup, seconds float64, ref *refSampler, tr *tracer, st *httpStats) *churnPhase {
	ph := &churnPhase{fixed: make([]*tenantOut, fixedTenants)}
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	enough := func() bool {
		el := time.Since(start).Seconds()
		mu.Lock()
		defer mu.Unlock()
		fixedDone := true
		for _, f := range ph.fixed {
			if f == nil {
				fixedDone = false
				break
			}
		}
		if el >= seconds*maxStretch {
			return true
		}
		return el >= seconds && fixedDone
	}
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(cs.base, st)
			c.tr = tr
			defer c.close()
			for !enough() {
				i := int(next.Add(1) - 1)
				ev, label := labelFor(cs, i)
				r := createRequest(cs.spec, ev, label)
				t0 := time.Now()
				body, err := runTenant(c, r, 0)
				t1 := time.Now()
				var out *tenantOut
				if err == nil {
					out, err = newTenantOut(i, ev.Template, body, t1.Sub(t0), ref.scale(t0, t1))
				}
				mu.Lock()
				ph.attempts++
				if err != nil {
					ph.failures++
					ph.errs = append(ph.errs, err.Error())
				} else {
					ph.outs = append(ph.outs, out)
					ph.simS += out.simS
					if i < fixedTenants {
						ph.fixed[i] = out
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.scale = ref.scale(start, start.Add(ph.wall))
	return ph
}

func runServeTenants(o options, ref *refSampler, rep *report) error {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var cs *churnSetup
	var setups setupTimes
	for i := 0; i < setupReps; i++ {
		if cs != nil {
			if err := cs.shutdown(); err != nil {
				return err
			}
		}
		id := tr.begin("bench.Setup", "", 0)
		t0 := time.Now()
		var err error
		cs, err = setupChurn(o, tr, id)
		t1 := time.Now()
		tr.end(id)
		if err != nil {
			return err
		}
		ref.sample()
		setups.add(t0, t1, ref)
	}
	defer cs.shutdown() // error paths; the success paths check it
	rep.info("peak_rss_mb.setup", "MiB", peakRSSMiB(), "VmHWM at the end of set-up")

	st := newHTTPStats()
	rep.http = st
	ph := runChurnPhase(cs, o.phaseSeconds(), ref, nil, st)
	// Read before the check, which re-runs tenants directly: the bounded
	// peak is that of set-up and the measured phase.
	rss := peakRSSMiB()
	rep.attempted, rep.failed = ph.attempts, ph.failures
	for _, e := range ph.errs {
		rep.fail("tenant failed: %s", e)
	}
	checkFixedDone(ph, rep)
	checkServed(cs, ph, checkSample, nil, nil, ref, rep)

	var q qosTally
	for _, f := range ph.fixed {
		if f != nil {
			q.add(&f.rr, cs.baseBG[f.template])
		}
	}
	rate := ph.simS / (ph.wall.Seconds() * ph.scale)
	if !o.trace {
		var lat, latRaw []float64
		for _, out := range ph.outs {
			latRaw = append(latRaw, float64(out.raw)/1e6)
			lat = append(lat, float64(out.raw)/1e6*out.scale)
		}
		setups.report(rep)
		rep.endToEnd("sim_rate", "sim-s/s", rate, fmt.Sprintf("%d tenants, drift-corrected", len(ph.outs)))
		rep.info("sim_rate.raw", "sim-s/s", ph.simS/ph.wall.Seconds(), fmt.Sprintf("phase wall %.1fs", ph.wall.Seconds()))
		rep.info("tenants_per_s.raw", "1/s", float64(len(ph.outs))/ph.wall.Seconds(), "closed loop, uncorrected")
		rep.pct("latency_p50_ms", lat, 0.50)
		rep.pctInfo("latency_p90_ms", lat, 0.90, "corrected, unbounded")
		rep.pctInfo("latency_p99_ms", lat, 0.99, "corrected, unbounded")
		for _, p := range []float64{0.5, 0.9, 0.99} {
			rep.pctInfo(fmt.Sprintf("latency_p%g_ms.raw", p*100), latRaw, p, "uncorrected")
		}
		rep.endToEnd("qos_success", "share", q.success(), fmt.Sprintf("first %d tenants: %d of %d executions", fixedTenants, q.met, q.total))
		rep.endToEnd("bg_throughput", "ratio", q.bgThroughput(), fmt.Sprintf("first %d tenants, mean", fixedTenants))
		rep.endToEnd("peak_rss_mb", "MiB", rss, "VmHWM after the measured phase, server in process")
		rep.info("peak_rss_mb.checked", "MiB", peakRSSMiB(), "VmHWM after the output check")
		st.reportRoutes(rep)
		return cs.shutdown()
	}

	traced := runChurnPhase(cs, o.phaseSeconds(), ref, tr, st)
	for _, e := range traced.errs {
		rep.fail("traced tenant failed: %s", e)
	}
	checkFixedDone(traced, rep)
	for i := range ph.fixed {
		if ph.fixed[i] != nil && traced.fixed[i] != nil && !bytes.Equal(ph.fixed[i].body, traced.fixed[i].body) {
			rep.fail("tracing changed the result of %s", ph.fixed[i].rr.Mix.Name)
		}
	}
	// The counts: every fixed tenant re-run directly through experiment
	// with the counting recorder and the policy wrapper (and compared).
	fc := newFixedCounts()
	tally.reset(tr, 0)
	checkServed(cs, ph, fixedTenants, fc, tr, ref, rep)
	fc.ticks, fc.actuated, _ = tally.snapshot()
	// The probes need an idle host.
	if err := cs.shutdown(); err != nil {
		return err
	}
	return finishTraced(o, ref, tr, rep, fc, rate, traced.simS/(traced.wall.Seconds()*traced.scale))
}

// checkFixedDone fails the run when the phase ended, at its time limit or
// after a failed lifecycle, without every fixed tenant done: the
// deterministic figures would then cover a subset.
func checkFixedDone(ph *churnPhase, rep *report) {
	done := 0
	for _, f := range ph.fixed {
		if f != nil {
			done++
		}
	}
	if done < len(ph.fixed) {
		rep.fail("only %d of the %d fixed tenants completed in %.1fs", done, len(ph.fixed), ph.wall.Seconds())
	}
}

// tenantRunners caches one runner per machine class, configured as the
// server's default runner.
type tenantRunners map[string]*experiment.Runner

func (t tenantRunners) get(class string) *experiment.Runner {
	r, ok := t[class]
	if !ok {
		r = experiment.NewRunner()
		r.MachineClass = class
		t[class] = r
	}
	return r
}

// directParams mirrors the server's create handler for a request.
func directParams(r server.CreateTenantRequest) experiment.RunParams {
	p := experiment.RunParams{
		Config:     config.Name(r.Config),
		Policy:     r.Policy,
		Deadlines:  r.DeadlinesS,
		Executions: r.Executions,
		BGLevel:    -1,
		Seed:       r.Seed,
	}
	for _, ns := range r.TargetsNS {
		p.Targets = append(p.Targets, time.Duration(ns))
	}
	return p
}

// checkServed re-runs the first n fixed tenants directly through
// experiment and requires each served /result to be byte-equal to the
// direct run's JSON. With fc set, the direct runs carry the counting
// recorder and the policy wrapper, and are counted.
func checkServed(cs *churnSetup, ph *churnPhase, n int, fc *fixedCounts, tr *tracer, ref *refSampler, rep *report) {
	runners := tenantRunners{}
	for i := 0; i < n && i < len(ph.fixed); i++ {
		out := ph.fixed[i]
		if out == nil {
			continue
		}
		ev, label := labelFor(cs, i)
		r := createRequest(cs.spec, ev, label)
		p := directParams(r)
		var ec *eventCounter
		if fc != nil {
			ec = newEventCounter()
			p.Extra = ec
			if r.Config != string(config.Baseline) {
				p.Policy = wrapped(p.Policy)
			}
		}
		mix := experiment.Mix{Name: r.Mix.Name, FG: r.Mix.FG, BG: r.Mix.BG}
		so, err := driveSession(runners.get(r.MachineClass), mix, p, sessionHooks{tr: tr, req: label, ref: ref})
		if err != nil {
			rep.fail("direct run of %s: %v", label, err)
			continue
		}
		if !bytes.Equal(append(so.js, '\n'), out.body) {
			rep.fail("served /result of %s differs from the direct experiment run", label)
		}
		if fc != nil {
			fc.events.add(ec)
			fc.addSession(so)
		}
	}
}
