package server

import (
	"errors"
	"fmt"
	"time"

	"dirigent/internal/experiment"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
)

// TenantState is a tenant's lifecycle phase.
type TenantState string

const (
	// StateRunning: the worker is stepping the simulation.
	StateRunning TenantState = "running"
	// StateDone: the run reached its execution goal; the result is ready.
	StateDone TenantState = "done"
	// StateFailed: the run errored or hit its simulated-time limit.
	StateFailed TenantState = "failed"
)

// Errors surfaced by tenant command dispatch.
var (
	// ErrTenantGone: the tenant's worker has exited (deleted or shut down).
	ErrTenantGone = errors.New("server: tenant gone")
	// ErrBusy: the worker did not accept the command within the timeout.
	ErrBusy = errors.New("server: tenant busy")
)

// TenantStats is the stats snapshot the API returns. Every quantity is
// derived on the tenant's own worker goroutine — run statistics come from
// the session's telemetry.Aggregator, the same stream subscribers see.
type TenantStats struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Mix    string `json:"mix"`
	Config string `json:"config"`
	// Policy is the QoS policy driving the tenant's runtime ("" for
	// non-runtime configurations).
	Policy string      `json:"policy,omitempty"`
	State  TenantState `json:"state"`
	Error  string      `json:"error,omitempty"`

	// Completed is the minimum completed-execution count across active FG
	// streams; Goal is the provisioned count (executions + extra warmup).
	Completed int `json:"completed"`
	Goal      int `json:"goal"`
	// Executions counts KindExecutionComplete events across all streams.
	Executions int `json:"executions"`
	// SimElapsed is the simulated nanoseconds the tenant has run.
	SimElapsed time.Duration `json:"sim_elapsed_ns"`

	// ActiveFG / ActiveBG are the live task counts after admissions and
	// evictions.
	ActiveFG int `json:"active_fg"`
	ActiveBG int `json:"active_bg"`
	// TargetsNS are the current per-stream latency targets (runtime
	// configurations only; evicted streams keep their last target).
	TargetsNS []int64 `json:"targets_ns,omitempty"`

	// Invocations counts Dirigent runtime samples; FGWays is the current
	// partition; Fine the cumulative fine-controller counters.
	Invocations int                 `json:"invocations,omitempty"`
	FGWays      int                 `json:"fg_ways,omitempty"`
	Fine        telemetry.FineStats `json:"fine"`
	Faults      int                 `json:"faults,omitempty"`
	Reprofiles  int                 `json:"reprofiles,omitempty"`

	// Subscribers and DroppedEvents describe live telemetry streaming:
	// DroppedEvents counts events lost to subscriber backpressure.
	Subscribers   int   `json:"subscribers"`
	DroppedEvents int64 `json:"dropped_events"`
}

// cmd is one control operation dispatched to the worker goroutine. The
// closure runs between step batches, so it may touch the session, runtime,
// and aggregator without synchronization.
type cmd struct {
	fn    func() (any, error)
	reply chan cmdReply
}

type cmdReply struct {
	v   any
	err error
}

// Tenant is one hosted simulation: a session plus the worker goroutine that
// owns it. All session access happens on the worker; handlers communicate
// through do().
type Tenant struct {
	id    string
	name  string
	sess  *experiment.Session
	bcast *broadcaster
	goal  int
	limit sim.Time

	cmds   chan cmd
	stop   chan struct{}
	ended  chan struct{} // closed when the run reaches done/failed
	exited chan struct{} // closed when the worker goroutine returns

	cmdTimeout time.Duration

	// Worker-owned state; handlers read it via commands only.
	state  TenantState
	errMsg string
	result *experiment.RunResult
}

// newTenant wraps an assembled session. The caller starts the worker.
func newTenant(id, name string, sess *experiment.Session, bcast *broadcaster, limit sim.Time, cmdTimeout time.Duration) *Tenant {
	return &Tenant{
		id: id, name: name, sess: sess, bcast: bcast,
		goal: sess.Goal(), limit: limit,
		cmds:   make(chan cmd),
		stop:   make(chan struct{}),
		ended:  make(chan struct{}),
		exited: make(chan struct{}),

		cmdTimeout: cmdTimeout,
		state:      StateRunning,
	}
}

// do runs fn on the worker goroutine and returns its result. It fails with
// ErrBusy if the worker does not accept the command within the tenant's
// command timeout, and ErrTenantGone once the worker has exited.
func (t *Tenant) do(fn func() (any, error)) (any, error) {
	c := cmd{fn: fn, reply: make(chan cmdReply, 1)}
	timer := time.NewTimer(t.cmdTimeout)
	defer timer.Stop()
	select {
	case t.cmds <- c:
	case <-t.exited:
		return nil, ErrTenantGone
	case <-timer.C:
		return nil, ErrBusy
	}
	select {
	case r := <-c.reply:
		return r.v, r.err
	case <-t.exited:
		return nil, ErrTenantGone
	}
}

// run is the worker loop: step the simulation in short batches, applying
// queued control commands at batch boundaries. After the run ends the
// worker keeps serving commands (stats, result) until the tenant is
// stopped.
func (t *Tenant) run() {
	defer close(t.exited)
	// stepBatch bounds command latency: at most this many quanta pass
	// before queued control operations land.
	const stepBatch = 256
	batch := stepBatch * sim.Time(t.sess.Colocation().Machine().Config().Quantum)
	for {
		select {
		case <-t.stop:
			t.end()
			return
		case c := <-t.cmds:
			v, err := c.fn()
			c.reply <- cmdReply{v: v, err: err}
			continue
		default:
		}
		if t.state != StateRunning {
			// Run over: block on control traffic only.
			select {
			case <-t.stop:
				t.end()
				return
			case c := <-t.cmds:
				v, err := c.fn()
				c.reply <- cmdReply{v: v, err: err}
			}
			continue
		}
		// Advance returns after every quantum with a completion, so the goal
		// is checked at the exact quantum it is met; no batch crosses the
		// time limit.
		end := min(t.sess.Now()+batch, t.limit)
		for t.state == StateRunning {
			if err := t.sess.Advance(end); err != nil {
				t.state = StateFailed
				t.errMsg = err.Error()
				break
			}
			if t.sess.Completed() >= t.goal {
				t.state = StateDone
				break
			}
			if t.sess.Now() >= t.limit {
				t.state = StateFailed
				t.errMsg = fmt.Sprintf("time limit: %d/%d executions within %v",
					t.sess.Completed(), t.goal, time.Duration(t.limit))
				break
			}
			if t.sess.Now() >= end {
				break
			}
		}
		if t.state != StateRunning {
			if t.state == StateDone {
				rr, err := t.sess.Collect()
				if err != nil {
					t.state = StateFailed
					t.errMsg = err.Error()
				} else {
					t.result = rr
				}
			}
			t.end()
		}
	}
}

// end marks the run finished and terminates subscriber streams. Idempotent.
func (t *Tenant) end() {
	select {
	case <-t.ended:
	default:
		close(t.ended)
	}
	t.bcast.closeAll()
}

// stats builds the snapshot; worker goroutine only.
func (t *Tenant) stats() TenantStats {
	sess := t.sess
	agg := sess.Aggregator()
	st := TenantStats{
		ID: t.id, Name: t.name,
		Mix:    sess.Mix().Name,
		Config: string(sess.Config()),
		Policy: sess.Policy(),
		State:  t.state, Error: t.errMsg,
		Completed:  sess.Completed(),
		Goal:       t.goal,
		Executions: agg.Executions(),
		SimElapsed: time.Duration(sess.Now()),
		Fine:       agg.Fine(),
		FGWays:     agg.FGWays(),
		Faults:     agg.Faults(),
		Reprofiles: agg.Reprofiles(),

		Subscribers:   t.bcast.Subscribers(),
		DroppedEvents: t.bcast.Dropped(),
	}
	for _, f := range sess.Colocation().FG() {
		if !f.Removed() {
			st.ActiveFG++
		}
	}
	st.ActiveBG = len(sess.Colocation().BG())
	if rt := sess.Runtime(); rt != nil {
		st.Invocations = rt.Invocations()
		for _, tgt := range rt.Targets() {
			st.TargetsNS = append(st.TargetsNS, int64(tgt))
		}
	}
	return st
}
