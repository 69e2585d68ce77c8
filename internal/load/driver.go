package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dirigent/internal/experiment"
	"dirigent/internal/server"
)

// Options tunes a replay.
type Options struct {
	// BaseURL is the dirigent-serve endpoint (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// Client overrides the HTTP client (default: 30 s total timeout).
	Client *http.Client
	// Speed compresses trace time: an event at trace second t fires at
	// wall second t/Speed (default 1, real time).
	Speed float64
	// MaxInFlight bounds concurrent API operations; it defaults to the
	// shared sweep fan-out width, experiment.MaxParallel (the
	// DIRIGENT_MAX_PARALLEL machinery).
	MaxInFlight int
	// LateBudget is the open-loop drop deadline: an operation that cannot
	// start (queueing included) within this much wall time of its
	// scheduled firing is dropped and counted, not executed late.
	// 0 means the 2 s default; negative disables dropping.
	LateBudget time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

const defaultLateBudget = 2 * time.Second

// LateBudget converts a CLI milliseconds value to the Options.LateBudget
// convention: 0 keeps the default, negative disables dropping.
func LateBudget(ms float64) time.Duration {
	if ms < 0 {
		return -1
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Speed <= 0 {
		o.Speed = 1
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = experiment.MaxParallel()
	}
	if o.LateBudget == 0 {
		o.LateBudget = defaultLateBudget
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// liveTenant tracks one trace tenant through the replay. The tail channel
// chains the tenant's operations FIFO: each dispatched op waits for its
// predecessor's channel, so a retarget never races its tenant's create or
// overtakes its evict, while distinct tenants proceed concurrently.
// Fields id/failed/evicted are written only by the op that owns the chain
// position and read by successors after the channel close, which orders
// the accesses.
type liveTenant struct {
	tail    chan struct{}
	id      string
	failed  bool // create dropped or rejected; successors drop themselves
	evicted bool
}

// Replay drives the trace against a dirigent-serve endpoint and returns
// the aggregated report. The spec supplies the tenant templates the
// trace's create events reference. Replay is open-loop: events fire at
// their scheduled (speed-compressed) times regardless of how the server
// keeps up; pressure shows up as API tail latency and, past LateBudget,
// as dropped events. After the last event the driver waits for in-flight
// operations, force-evicts any tenant the trace left behind, and
// reconciles against GET /v1/tenants — tenants the server still holds
// after that are reported as leaked.
func Replay(tr *Trace, s Spec, o Options) (*Report, error) {
	if o.BaseURL == "" {
		return nil, errors.New("load: replay needs a base URL")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Op == OpCreate && s.Template(ev.Template) == nil {
			return nil, fmt.Errorf("load: trace event %d references unknown template %q (spec %s)",
				ev.Seq, ev.Template, s.Name)
		}
	}
	o = o.withDefaults()

	d := &driver{opts: o, rec: newRecorder()}
	sem := make(chan struct{}, o.MaxInFlight)
	var wg sync.WaitGroup
	tenants := map[string]*liveTenant{}
	var order []*liveTenant

	creates, retargets, evicts := tr.Counts()
	o.Logf("replaying %d events (%d creates, %d retargets, %d evicts) at %gx against %s",
		len(tr.Events), creates, retargets, evicts, o.Speed, o.BaseURL)

	start := time.Now()
	for i := range tr.Events {
		ev := tr.Events[i]
		due := start.Add(time.Duration(float64(ev.AtUS) * float64(time.Microsecond) / o.Speed))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lt := tenants[ev.Tenant]
		if ev.Op == OpCreate {
			done := make(chan struct{})
			close(done)
			lt = &liveTenant{tail: done}
			tenants[ev.Tenant] = lt
			order = append(order, lt)
		} else if lt == nil {
			// A recorded trace may reference tenants created before the
			// recording started; nothing to drive them against.
			d.rec.drop(ev.Op)
			continue
		}
		prev := lt.tail
		done := make(chan struct{})
		lt.tail = done
		wg.Add(1)
		go func(ev Event, lt *liveTenant) {
			defer wg.Done()
			defer close(done)
			<-prev
			sem <- struct{}{}
			defer func() { <-sem }()
			if o.LateBudget >= 0 && time.Since(due) > o.LateBudget {
				d.rec.drop(ev.Op)
				if ev.Op == OpCreate {
					lt.failed = true
				}
				return
			}
			if ev.Op != OpCreate && lt.failed {
				d.rec.drop(ev.Op)
				return
			}
			switch ev.Op {
			case OpCreate:
				d.create(ev, s.Template(ev.Template), lt)
			case OpRetarget:
				d.retarget(ev, lt)
			case OpEvict:
				d.evict(lt)
			}
		}(ev, lt)
	}
	wg.Wait()

	// Drain: the trace schedules an evict for every synthesized tenant,
	// but a dropped or failed evict — or a foreign trace — can leave
	// tenants behind; delete them so leak accounting reflects the server,
	// not the schedule.
	drained := 0
	for _, lt := range order {
		if lt.id != "" && !lt.evicted {
			if d.deleteTenant(lt.id) == nil {
				drained++
			}
		}
	}

	leaked, err := d.listTenants()
	if err != nil {
		return nil, fmt.Errorf("load: reconcile tenants: %w", err)
	}

	rep := d.rec.report()
	rep.Spec = tr.Spec
	rep.Seed = tr.Seed
	rep.TraceEvents = len(tr.Events)
	rep.Creates, rep.Retargets, rep.Evicts = creates, retargets, evicts
	rep.Suppressed = tr.Suppressed
	rep.Speed = o.Speed
	rep.MaxInFlight = o.MaxInFlight
	rep.WallS = time.Since(start).Seconds()
	rep.DrainEvicted = drained
	rep.Leaked = len(leaked)
	rep.LeakedIDs = leaked
	return rep, nil
}

// driver bundles the HTTP plumbing of one replay.
type driver struct {
	opts Options
	rec  *recorder
}

func (d *driver) create(ev Event, tmpl *TenantTemplate, lt *liveTenant) {
	req := server.CreateTenantRequest{
		Name: ev.Tenant,
		// The mix name doubles as the tenant's deterministic seed source,
		// so distinct tenants run distinct (but reproducible) simulations.
		Mix:          server.MixSpec{Name: ev.Tenant, FG: tmpl.Mix.FG, BG: tmpl.Mix.BG},
		Config:       tmpl.ConfigName(),
		Policy:       tmpl.Policy,
		MachineClass: tmpl.MachineClass,
		Executions:   tmpl.ExecutionGoal(),
	}
	for _, ms := range tmpl.TargetMS {
		req.TargetsNS = append(req.TargetsNS, int64(ms*float64(time.Millisecond)))
		// Explicit deadlines make QoS success-rate accounting work for
		// non-runtime configurations (Baseline templates) too.
		req.DeadlinesS = append(req.DeadlinesS, ms/1000)
	}
	var resp struct {
		ID string `json:"id"`
	}
	err := d.call(OpCreate, http.MethodPost, "/v1/tenants", req, &resp)
	if err != nil || resp.ID == "" {
		if err == nil {
			err = fmt.Errorf("create %s: empty tenant id", ev.Tenant)
		}
		d.rec.fail(OpCreate, err)
		lt.failed = true
		return
	}
	lt.id = resp.ID
}

func (d *driver) retarget(ev Event, lt *liveTenant) {
	body := map[string]any{"stream": ev.Stream, "target_ns": ev.TargetUS * 1000}
	if err := d.call(OpRetarget, http.MethodPost, "/v1/tenants/"+lt.id+"/targets", body, nil); err != nil {
		d.rec.fail(OpRetarget, err)
	}
}

// evict snapshots the tenant's QoS mid-run (partial result) and deletes
// it. The snapshot is best-effort — a tenant evicted before its first
// completed execution has no per-stream statistics yet.
func (d *driver) evict(lt *liveTenant) {
	var result struct {
		Streams []struct {
			SuccessRate float64 `json:"SuccessRate"`
		} `json:"Streams"`
	}
	if err := d.call(opResult, http.MethodGet, "/v1/tenants/"+lt.id+"/result?partial=1", nil, &result); err != nil {
		d.rec.fail(opResult, err)
	} else if len(result.Streams) > 0 {
		sum := 0.0
		for _, st := range result.Streams {
			sum += st.SuccessRate
		}
		d.rec.qosSample(sum / float64(len(result.Streams)))
	}
	if err := d.call(OpEvict, http.MethodDelete, "/v1/tenants/"+lt.id, nil, nil); err != nil {
		d.rec.fail(OpEvict, err)
		return
	}
	lt.evicted = true
}

// call performs one API operation, recording its wall latency under op.
func (d *driver) call(op Op, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.opts.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := d.opts.Client.Do(req)
	if err != nil {
		return err
	}
	d.rec.latency(op, time.Since(start))
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, apiErr.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// deleteTenant is the drain-phase eviction (latency recorded under evict).
func (d *driver) deleteTenant(id string) error {
	return d.call(OpEvict, http.MethodDelete, "/v1/tenants/"+id, nil, nil)
}

// listTenants returns the IDs the server still holds.
func (d *driver) listTenants() ([]string, error) {
	var stats []struct {
		ID string `json:"id"`
	}
	if err := d.call(opResult, http.MethodGet, "/v1/tenants", nil, &stats); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(stats))
	for _, st := range stats {
		ids = append(ids, st.ID)
	}
	return ids, nil
}
