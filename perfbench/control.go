package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dirigent/internal/experiment"
	"dirigent/internal/server"
)

// The serve-control workload: an open loop of control operations against
// an in-process dirigent-serve hosting nproc−1 long-running tenants and
// two finished ones. Operations arrive as a seeded Poisson stream at
// controlRate, are sent over at most nproc connections, and are timed from
// their due time, so a stall also delays the operations queued behind it.
//
// The seven routes get equal shares of the operations. That split is a
// choice, not a measurement: the repository has no record of control
// traffic (dirigent-load replays creates, retargets, partial results and
// deletes, but no stats, list, finished-result or BG operations). So the
// bounded latency does not pool the operations, where the split would
// decide which routes move it: it is the geometric mean of the routes'
// medians, to which every route contributes alike whatever its share.
//
// The live tenants stay below nproc on purpose: with as many live tenants
// as CPUs the API starves (two live tenants on two CPUs backed up without
// bound at 100 ops/s in process), because a tenant worker steps its
// batches without blocking and handlers wait for Go's async preemption.

const (
	// controlRate is the offered load in operations per second; with one
	// live tenant on two CPUs the service keeps up at 500/s.
	controlRate = 200.0
	// lateLimitMs invalidates a run whose generator fell behind: the p99
	// of (sent − due) must stay below it.
	lateLimitMs = 50.0
	// finishedExecutions sizes the finished tenants: 35 executions after
	// the server runner's warmup of 5.
	finishedExecutions = 40
)

type opKind int

const (
	opStats opKind = iota
	opPartial
	opResult
	opList
	opRetarget
	opAdmitBG
	opEvictBG
)

var opRoutes = [...]string{routeStats, routePartial, routeResult, routeList, routeRetarget, routeAdmitBG, routeEvictBG}

// opMix weighs the operation kinds so that each route gets an equal share:
// a BG draw alternates admit and evict, so it weighs two.
var opMix = []struct {
	kind   opKind
	weight float64
}{{opStats, 1}, {opPartial, 1}, {opResult, 1}, {opList, 1}, {opRetarget, 1}, {opAdmitBG, 2}}

// controlOp is one scheduled operation.
type controlOp struct {
	at   time.Duration
	kind opKind
	// arg selects the finished tenant (result), the target value
	// (retarget) or the BG pair (admit/evict); live picks the tenant.
	arg, live int
}

// controlSchedule draws the operation stream for seed: Poisson arrivals at
// rate over seconds, kinds by opMix, spread round-robin over live tenants.
// The same seed always gives the same schedule.
func controlSchedule(seed uint64, rate, seconds float64, live int) []controlOp {
	g := newSplitmix(seed)
	total := 0.0
	for _, m := range opMix {
		total += m.weight
	}
	var ops []controlOp
	open := make([]int, live) // per live tenant: open BG pair + 1, or 0
	pairs, n := 0, 0
	for t := g.exp(rate); t < seconds; t += g.exp(rate) {
		x := g.float() * total
		kind := opMix[len(opMix)-1].kind
		for _, m := range opMix {
			if x < m.weight {
				kind = m.kind
				break
			}
			x -= m.weight
		}
		op := controlOp{at: time.Duration(t * float64(time.Second)), kind: kind, live: n % live}
		n++
		switch kind {
		case opResult, opRetarget:
			op.arg = n % 2
		case opAdmitBG:
			if open[op.live] > 0 {
				op.kind, op.arg = opEvictBG, open[op.live]-1
				open[op.live] = 0
			} else {
				op.arg = pairs
				open[op.live] = pairs + 1
				pairs++
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// controlSetup is the serve-control set-up's output.
type controlSetup struct {
	base     string
	shutdown func() error
	live     []string
	liveName []string
	done     []string // Baseline, Dirigent
	doneReq  []server.CreateTenantRequest
	results  [][]byte
	all      map[string]bool
}

// setupControl starts the server, runs the finished tenants and creates
// the live ones.
func setupControl(live int, tr *tracer, parent int) (*controlSetup, error) {
	base, shutdown, err := startServer()
	if err != nil {
		return nil, err
	}
	cs := &controlSetup{base: base, shutdown: shutdown, all: map[string]bool{}}
	c := newClient(base, newHTTPStats())
	c.tr = tr
	defer c.close()
	fail := func(err error) (*controlSetup, error) {
		_ = shutdown()
		return nil, err
	}
	for _, cfg := range []string{"Baseline", "Dirigent"} {
		r := finishedRequest("control-done-"+cfg, cfg, finishedExecutions)
		id, err := c.create(r, parent)
		if err != nil {
			return fail(err)
		}
		if _, err := c.waitDone(id, r.Mix.Name, parent); err != nil {
			return fail(err)
		}
		body, err := c.result(id, r.Mix.Name, parent)
		if err != nil {
			return fail(err)
		}
		cs.done, cs.doneReq, cs.results = append(cs.done, id), append(cs.doneReq, r), append(cs.results, body)
		cs.all[id] = true
	}
	for i := 0; i < live; i++ {
		name := fmt.Sprintf("control-live-%d", i)
		id, err := startLive(c, name, parent)
		if err != nil {
			return fail(err)
		}
		cs.live, cs.liveName = append(cs.live, id), append(cs.liveName, name)
		cs.all[id] = true
	}
	return cs, nil
}

// startLive creates a live tenant and runs it past the server runner's
// warmup, so that it is long-running when the operations start. (A partial
// result of a tenant with no execution past warmup fails with 409 "stats:
// empty sample set"; see the README.)
func startLive(c *client, name string, parent int) (string, error) {
	id, err := c.create(liveRequest(name), parent)
	if err != nil {
		return "", err
	}
	return id, c.waitCompleted(id, experiment.NewRunner().Warmup+1, name, parent)
}

// renewLive replaces each live tenant with a fresh one of the same name.
func (cs *controlSetup) renewLive() error {
	c := newClient(cs.base, newHTTPStats())
	defer c.close()
	for i, id := range cs.live {
		if err := c.remove(id, cs.liveName[i], 0); err != nil {
			return err
		}
		delete(cs.all, id)
		nid, err := startLive(c, cs.liveName[i], 0)
		if err != nil {
			return err
		}
		cs.live[i] = nid
		cs.all[nid] = true
	}
	return nil
}

// controlPhase is one measured phase's outcome.
type controlPhase struct {
	// lat is due → reply in ms, +Inf for a failed operation; latC is the
	// same, drift-corrected. byKind and byKindC split them by route.
	lat, latC       []float64
	late            []float64 // due → sent, ms
	byKind, byKindC map[opKind][]float64
	failures        int
	errs            []string
	wall            time.Duration
	scale           float64
	simS            float64 // simulated seconds the live tenants advanced
}

// runControlPhase plays the schedule against the live and finished
// tenants, checking every reply.
func runControlPhase(cs *controlSetup, ops []controlOp, ref *refSampler, tr *tracer, st *httpStats) (*controlPhase, error) {
	ph := &controlPhase{byKind: map[opKind][]float64{}, byKindC: map[opKind][]float64{}}
	c0 := newClient(cs.base, st)
	defer c0.close()
	simNow := func() (float64, error) {
		s := 0.0
		for _, id := range cs.live {
			ts, err := c0.stats(id, "", 0)
			if err != nil {
				return 0, err
			}
			if ts.State != server.StateRunning {
				return 0, fmt.Errorf("live tenant %s is %s: %s", id, ts.State, ts.Error)
			}
			s += ts.SimElapsed.Seconds()
		}
		return s, nil
	}
	sim0, err := simNow()
	if err != nil {
		return nil, err
	}

	pairs := map[int]chan int{}
	for _, op := range ops {
		if op.kind == opAdmitBG {
			pairs[op.arg] = make(chan int, 1)
		}
	}
	work := make(chan controlOp)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(cs.base, st)
			c.tr = tr
			defer c.close()
			for op := range work {
				sent := time.Now()
				due := start.Add(op.at)
				err := doControlOp(c, cs, op, pairs)
				ms := float64(time.Since(due)) / 1e6
				msC := ms * ref.scale(due, time.Now())
				mu.Lock()
				ph.late = append(ph.late, float64(sent.Sub(due))/1e6)
				if err != nil {
					ph.failures++
					ph.errs = append(ph.errs, err.Error())
					ms, msC = math.Inf(1), math.Inf(1)
				}
				ph.lat = append(ph.lat, ms)
				ph.latC = append(ph.latC, msC)
				ph.byKind[op.kind] = append(ph.byKind[op.kind], ms)
				ph.byKindC[op.kind] = append(ph.byKindC[op.kind], msC)
				mu.Unlock()
			}
		}()
	}
	for _, op := range ops {
		if d := time.Until(start.Add(op.at)); d > 0 {
			time.Sleep(d)
		}
		work <- op
	}
	close(work)
	wg.Wait()
	ph.wall = time.Since(start)
	ph.scale = ref.scale(start, start.Add(ph.wall))
	sim1, err := simNow()
	if err != nil {
		return nil, err
	}
	ph.simS = sim1 - sim0
	return ph, nil
}

// routeMedians returns each route's median latency and the geometric mean
// of them, or ok false when a route has too few samples for a median.
func routeMedians(byKind map[opKind][]float64) (meds []float64, gmean float64, ok bool) {
	logSum := 0.0
	for k := range opRoutes {
		v, ok := percentile(byKind[opKind(k)], 0.5)
		if !ok {
			return nil, 0, false
		}
		meds = append(meds, v)
		logSum += math.Log(v)
	}
	return meds, math.Exp(logSum / float64(len(opRoutes))), true
}

// doControlOp sends one operation and checks that the reply has the
// expected status and echoes the state it set.
func doControlOp(c *client, cs *controlSetup, op controlOp, pairs map[int]chan int) error {
	id, name := cs.live[op.live], cs.liveName[op.live]
	switch op.kind {
	case opStats:
		st, err := c.stats(id, name, 0)
		if err == nil && (st.State != server.StateRunning || st.Mix != name) {
			err = fmt.Errorf("stats %s: state %s mix %q", id, st.State, st.Mix)
		}
		return err
	case opPartial:
		b, err := c.call(routePartial, http.MethodGet, "/v1/tenants/"+id+"/result?partial=1", nil, http.StatusOK, name, 0)
		if err != nil {
			return err
		}
		var rr experiment.RunResult
		if err := json.Unmarshal(b, &rr); err != nil || rr.Mix.Name != name {
			return fmt.Errorf("partial result of %s: bad reply", id)
		}
		return nil
	case opResult:
		b, err := c.result(cs.done[op.arg], "", 0)
		if err == nil && !bytes.Equal(b, cs.results[op.arg]) {
			err = fmt.Errorf("result of finished %s changed", cs.done[op.arg])
		}
		return err
	case opList:
		b, err := c.call(routeList, http.MethodGet, "/v1/tenants", nil, http.StatusOK, "", 0)
		if err != nil {
			return err
		}
		var all []server.TenantStats
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("list: %w", err)
		}
		seen := 0
		for _, t := range all {
			if cs.all[t.ID] {
				seen++
			}
		}
		if seen != len(cs.all) {
			return fmt.Errorf("list shows %d of %d tenants", seen, len(cs.all))
		}
		return nil
	case opRetarget:
		want := retargetNs[op.arg]
		b, err := c.call(routeRetarget, http.MethodPost, "/v1/tenants/"+id+"/targets",
			map[string]any{"stream": 0, "target_ns": want}, http.StatusOK, name, 0)
		if err != nil {
			return err
		}
		var echo struct {
			Stream   *int   `json:"stream"`
			TargetNS *int64 `json:"target_ns"`
		}
		if err := json.Unmarshal(b, &echo); err != nil || echo.Stream == nil || *echo.Stream != 0 || echo.TargetNS == nil || *echo.TargetNS != want {
			return fmt.Errorf("retarget %s: reply %q does not echo target %d", id, b, want)
		}
		return nil
	case opAdmitBG:
		task, err := admitBG(c, id, name, 0)
		if err != nil {
			task = -1
		}
		pairs[op.arg] <- task
		return err
	case opEvictBG:
		task := <-pairs[op.arg]
		if task < 0 {
			return errors.New("evict bg: its admit failed")
		}
		return evictBG(c, id, task, name, 0)
	}
	return fmt.Errorf("unknown operation %d", op.kind)
}

func runServeControl(o options, ref *refSampler, rep *report) error {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	live := runtime.NumCPU() - 1
	if live < 1 {
		live = 1
	}
	var cs *controlSetup
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
		cs, err = setupControl(live, tr, id)
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

	ops := controlSchedule(o.seed, controlRate, o.phaseSeconds(), live)
	st := newHTTPStats()
	rep.http = st
	ph, err := runControlPhase(cs, ops, ref, nil, st)
	if err != nil {
		return err
	}
	rss := peakRSSMiB()
	rep.attempted, rep.failed = len(ops), ph.failures
	for _, e := range ph.errs {
		rep.fail("operation failed: %s", e)
	}
	if late, ok := percentile(ph.late, 0.99); ok && late > lateLimitMs {
		rep.fail("invalid run: the generator fell behind its schedule (p99 lateness %.1f ms > %.0f ms)", late, lateLimitMs)
	}

	var q qosTally
	var rrs []experiment.RunResult
	for _, b := range cs.results {
		var rr experiment.RunResult
		if err := json.Unmarshal(b, &rr); err != nil {
			return fmt.Errorf("finished tenant result: %w", err)
		}
		rrs = append(rrs, rr)
		q.add(&rr, 0)
	}
	rate := ph.simS / (ph.wall.Seconds() * ph.scale)
	if !o.trace {
		setups.report(rep)
		rep.endToEnd("sim_rate", "sim-s/s", rate, fmt.Sprintf("%d live tenants, drift-corrected", live))
		rep.info("sim_rate.raw", "sim-s/s", ph.simS/ph.wall.Seconds(), fmt.Sprintf("phase wall %.1fs", ph.wall.Seconds()))
		// Most operations wait for the live tenant's next batch boundary,
		// which comes at CPU speed, so the latencies are corrected. Only a
		// median is bounded: in some host periods more than a tenth of the
		// operations wait for a preemption, and the p90 doubles.
		medsC, gmeanC, ok := routeMedians(ph.byKindC)
		if !ok {
			rep.missing = append(rep.missing, fmt.Sprintf("latency_p50_ms: a route has fewer than %d samples beyond its median", minTail))
		} else {
			rep.endToEnd("latency_p50_ms", "ms", gmeanC, fmt.Sprintf("geometric mean of the %d routes' medians, corrected", len(opRoutes)))
		}
		if meds, gmean, ok := routeMedians(ph.byKind); ok && medsC != nil {
			rep.info("latency_p50_ms.raw", "ms", gmean, "geometric mean of the route medians, uncorrected")
			for k, r := range opRoutes {
				rep.info("op."+r+"_p50_ms", "ms", medsC[k], fmt.Sprintf("n=%d, due → reply, corrected; raw %.4g", len(ph.byKind[opKind(k)]), meds[k]))
			}
		}
		rep.pctInfo("latency_p50_ms.pooled", ph.latC, 0.50, "all operations, corrected, unbounded")
		rep.pctInfo("latency_p90_ms", ph.latC, 0.90, "all operations, corrected, unbounded")
		rep.pctInfo("latency_p99_ms", ph.latC, 0.99, "all operations, corrected, unbounded")
		for _, p := range []float64{0.9, 0.99} {
			rep.pctInfo(fmt.Sprintf("latency_p%g_ms.raw", p*100), ph.lat, p, "all operations, uncorrected")
		}
		rep.endToEnd("qos_success", "share", q.success(), fmt.Sprintf("finished tenants: %d of %d executions", q.met, q.total))
		rep.endToEnd("bg_throughput", "ratio", rrs[1].BGInstrRate/rrs[0].BGInstrRate, "finished Dirigent ÷ finished Baseline tenant")
		rep.endToEnd("peak_rss_mb", "MiB", rss, "VmHWM after the measured phase, server in process")
		rep.pctInfo("load.late_p50_ms", ph.late, 0.50, "sent − due")
		rep.pctInfo("load.late_p99_ms", ph.late, 0.99, "sent − due")
		rep.info("offered_ops", "count", float64(len(ops)), fmt.Sprintf("Poisson at %.0f/s, equal shares of %d routes", controlRate, len(opRoutes)))
		return cs.shutdown()
	}

	// The traced phase starts, like the untraced one, from fresh live
	// tenants, so the two sim_rates compare like with like.
	if err := cs.renewLive(); err != nil {
		return err
	}
	traced, err := runControlPhase(cs, ops, ref, tr, st)
	if err != nil {
		return err
	}
	for _, e := range traced.errs {
		rep.fail("traced operation failed: %s", e)
	}
	rep.pctInfo("load.late_p50_ms", traced.late, 0.50, "sent − due, traced phase")
	rep.pctInfo("load.late_p99_ms", traced.late, 0.99, "sent − due, traced phase")
	// Counts: the finished tenants re-run directly through experiment with
	// the counting recorder and the policy wrapper, compared byte for byte.
	fc := newFixedCounts()
	tally.reset(tr, 0)
	runners := tenantRunners{}
	for i, r := range cs.doneReq {
		p := directParams(r)
		ec := newEventCounter()
		p.Extra = ec
		if r.Config != "Baseline" {
			p.Policy = wrapped(p.Policy)
		}
		mix := experiment.Mix{Name: r.Mix.Name, FG: r.Mix.FG, BG: r.Mix.BG}
		so, err := driveSession(runners.get(r.MachineClass), mix, p, sessionHooks{tr: tr, req: r.Mix.Name, ref: ref})
		if err != nil {
			return err
		}
		if !bytes.Equal(append(so.js, '\n'), cs.results[i]) {
			rep.fail("served /result of %s differs from the direct experiment run", r.Mix.Name)
		}
		fc.events.add(ec)
		fc.addSession(so)
	}
	fc.ticks, fc.actuated, _ = tally.snapshot()
	// The probes need an idle host: the live tenants would starve them.
	if err := cs.shutdown(); err != nil {
		return err
	}
	return finishTraced(o, ref, tr, rep, fc, rate, traced.simS/(traced.wall.Seconds()*traced.scale))
}
