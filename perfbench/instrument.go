package main

import (
	"sync"
	"time"

	"dirigent/internal/policy"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// Observation hooks for traced runs. Both are strictly observational: the
// timing wrapper reports the delegate's name and forwards every call, and
// the counting recorder only reads events, so a traced session's RunResult
// is byte-identical to an untraced one (checked on every traced run).

// wrapPrefix marks the benchmark-owned policy names registered below.
const wrapPrefix = "perfbench-"

// wrappedPolicies are the program's policies the wrapper can time.
var wrappedPolicies = []string{policy.NameDirigent, policy.NameRTGang, policy.NameCORDLike}

func init() {
	for _, name := range wrappedPolicies {
		policy.Register(wrapPrefix+name, func(o policy.Options) policy.Policy {
			p, err := policy.New(name, o)
			if err != nil {
				// Only the names listed above are wrapped, and each is
				// registered by the policy package itself.
				panic(err)
			}
			return &timedPolicy{Policy: p, name: name}
		})
	}
}

// wrapped returns the benchmark-owned name that times policy name (""
// means the default, dirigent).
func wrapped(name string) string {
	if name == "" {
		name = policy.NameDirigent
	}
	return wrapPrefix + name
}

// policyTally accumulates tick counts and times per policy. It is a
// package variable because policy.Register's factories take no context;
// the wrapper writes it from whichever goroutine steps the session.
type policyTally struct {
	mu       sync.Mutex
	ticks    map[string]int
	actuated map[string]int
	ns       map[string]float64
	// tr and parent attach tick spans to the caller's current span.
	tr     *tracer
	parent int
}

var tally = newPolicyTally()

func newPolicyTally() *policyTally {
	return &policyTally{ticks: map[string]int{}, actuated: map[string]int{}, ns: map[string]float64{}}
}

// reset clears the counts and attaches tick spans to parent on tr.
func (t *policyTally) reset(tr *tracer, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks, t.actuated, t.ns = map[string]int{}, map[string]int{}, map[string]float64{}
	t.tr, t.parent = tr, parent
}

// setParent makes later tick spans children of span id.
func (t *policyTally) setParent(id int) {
	t.mu.Lock()
	t.parent = id
	t.mu.Unlock()
}

func (t *policyTally) snapshot() (ticks, actuated map[string]int, ns map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ticks, actuated, ns = map[string]int{}, map[string]int{}, map[string]float64{}
	for k, v := range t.ticks {
		ticks[k] = v
	}
	for k, v := range t.actuated {
		actuated[k] = v
	}
	for k, v := range t.ns {
		ns[k] = v
	}
	return ticks, actuated, ns
}

// timedPolicy times Tick and notes whether the tick actuated anything.
type timedPolicy struct {
	policy.Policy
	name     string
	actuated bool
}

func (p *timedPolicy) Init(b policy.Binding) error {
	b.Recorder = &actionWatch{Recorder: b.Recorder, p: p}
	return p.Policy.Init(b)
}

func (p *timedPolicy) Tick(now sim.Time, status []policy.FGStatus) error {
	tally.mu.Lock()
	tr, parent := tally.tr, tally.parent
	tally.mu.Unlock()
	p.actuated = false
	id := tr.begin("policy."+p.name+".Tick", "", parent)
	t0 := time.Now()
	err := p.Policy.Tick(now, status)
	d := time.Since(t0)
	tr.end(id)
	tally.mu.Lock()
	tally.ticks[p.name]++
	tally.ns[p.name] += float64(d)
	if p.actuated {
		tally.actuated[p.name]++
	}
	tally.mu.Unlock()
	return err
}

// actionWatch sits on the policy's own recorder and flags actuations: a
// fine-controller action other than a dropped one, or a partition change.
type actionWatch struct {
	telemetry.Recorder
	p *timedPolicy
}

func (w *actionWatch) Record(ev telemetry.Event) {
	switch {
	case ev.Kind == telemetry.KindFineAction && ev.Action != telemetry.ActionNone && ev.Action != telemetry.ActionActuationFail:
		w.p.actuated = true
	case ev.Kind == telemetry.KindCoarseDecision && ev.Delta != 0, ev.Kind == telemetry.KindPartitionMove:
		w.p.actuated = true
	}
	w.Recorder.Record(ev)
}

// eventCounter is the counting recorder passed in RunParams.Extra. It
// consumes every kind, so the counts are those of a fully observed run.
type eventCounter struct {
	byKind         map[telemetry.Kind]int
	actuationFails int
}

func newEventCounter() *eventCounter {
	return &eventCounter{byKind: map[telemetry.Kind]int{}}
}

func (c *eventCounter) Enabled(telemetry.Kind) bool { return true }

func (c *eventCounter) Record(ev telemetry.Event) {
	c.byKind[ev.Kind]++
	if ev.Kind == telemetry.KindFineAction && ev.Action == telemetry.ActionActuationFail {
		c.actuationFails++
	}
}

func (c *eventCounter) RecordQuantumSteps(evs []telemetry.Event) {
	c.byKind[telemetry.KindQuantumStep] += len(evs)
}

// add folds o's counts into c.
func (c *eventCounter) add(o *eventCounter) {
	for k, v := range o.byKind {
		c.byKind[k] += v
	}
	c.actuationFails += o.actuationFails
}
