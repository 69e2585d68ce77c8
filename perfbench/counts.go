package main

import (
	"fmt"

	"dirigent/internal/machine"
	"dirigent/internal/telemetry"
)

// fixedCounts are the deterministic per-layer counts of a workload's fixed
// session set (sessions: pass 0; served workloads: the fixed tenants,
// replayed directly through experiment). A pure speed-up leaves them
// identical.
type fixedCounts struct {
	events          *eventCounter
	ticks, actuated map[string]int
	fgMisses        float64
	fgInstr         float64
	quanta          map[string]float64 // by machine class
	taskQuanta      map[string]float64 // quanta × tasks, by machine class
	invocations     int
	// sessionNs is the corrected host time of the fixed sessions, the
	// denominator of the attribution.
	sessionNs float64
}

func newFixedCounts() *fixedCounts {
	return &fixedCounts{events: newEventCounter(), ticks: map[string]int{}, actuated: map[string]int{},
		quanta: map[string]float64{}, taskQuanta: map[string]float64{}}
}

func (c *fixedCounts) addSession(out *sessionOut) {
	c.fgMisses += out.rr.FGLLCMisses
	c.fgInstr += out.rr.FGInstructions
	class := out.class
	if class == "" {
		class = machine.DefaultClass
	}
	c.quanta[class] += out.quanta
	c.taskQuanta[class] += out.quanta * float64(out.tasks)
	c.invocations += out.invocations
	c.sessionNs += out.corr
}

func sumInts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func (c *fixedCounts) report(rep *report) {
	if c.fgInstr > 0 {
		rep.perLayer("cache.fg_mpki", "count", c.fgMisses/c.fgInstr*1000, "FG LLC misses per kilo-instruction, pooled")
	}
	q := 0.0
	for _, v := range c.quanta {
		q += v
	}
	rep.perLayer("machine.quanta", "count", q, "simulated quanta")
	rep.perLayer("core.invocations", "count", float64(c.invocations), "runtime invocations")
	ticks := sumInts(c.ticks)
	rep.perLayer("policy.ticks", "count", float64(ticks), "policy Tick calls")
	share := 0.0
	if ticks > 0 {
		share = float64(sumInts(c.actuated)) / float64(ticks)
	}
	rep.perLayer("policy.action_share", "share", share, "ticks that actuated ÷ ticks")
	rep.perLayer("policy.actuation_failures", "count", float64(c.events.actuationFails), "dropped actuations (injected faults)")
	for _, k := range telemetry.Kinds() {
		rep.perLayer("telemetry.events."+k.String(), "count", float64(c.events.byKind[k]), "")
	}
}

// unattributedShare is the share of the fixed sessions' host time that the
// per-layer unit costs times the per-layer counts do not account for: the
// machine quantum by class (scaled from the probe's busy cores to the
// session's tasks), policy ticks, predictor calls and telemetry records.
// It has no threshold; it shows what the layer numbers miss, and is
// negative where they overestimate (a paused task costs less than a
// running one).
func (c *fixedCounts) unattributedShare(costs *probeResults) float64 {
	if c.sessionNs <= 0 {
		return 0
	}
	model := 0.0
	for class, tq := range c.taskQuanta {
		model += tq * costs.cost["machine.task_quantum_ns."+class]
	}
	for name, n := range c.ticks {
		model += float64(n) * costs.cost["policy."+name+".tick_ns"]
	}
	model += float64(c.invocations) * (costs.cost["core.observe_ns"] + costs.cost["core.predict_ns"])
	events := 0
	for _, n := range c.events.byKind {
		events += n
	}
	model += float64(events) * costs.cost["telemetry.record_ns"]
	return 1 - model/c.sessionNs
}

// finishTraced runs the probes and reports every per-layer metric.
func finishTraced(o options, ref *refSampler, tr *tracer, rep *report, fc *fixedCounts, untracedRate, tracedRate float64) error {
	costs, err := runProbes(o, tr, ref)
	if err != nil {
		return err
	}
	rep.perLayer("bench.ref_ns", "ns", ref.medianNs(), fmt.Sprintf("median reference sample; corrected figures assume %v", refNominal))
	rep.perLayer("bench.trace_overhead", "ratio", tracedRate/untracedRate,
		fmt.Sprintf("traced %.4g ÷ untraced %.4g sim-s/s", tracedRate, untracedRate))
	rep.perLayer("bench.unattributed_share", "share", fc.unattributedShare(costs), "of the fixed sessions' host time")
	fc.report(rep)
	costs.report(rep)
	non2xx := costs.non2xx
	if rep.http != nil {
		non2xx += rep.http.non2xx
	}
	rep.perLayer("server.non2xx", "count", float64(non2xx), "non-2xx replies to the run's requests")
	for _, lr := range tr.layerTable() {
		rep.info("self."+lr.name, "ms", lr.totalNs/1e6,
			fmt.Sprintf("n=%d median %.4gms share %.3f", lr.n, lr.medianNs/1e6, lr.share))
	}
	return tr.write(o.outPath(fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
}
