package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/fault"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
	"dirigent/internal/sim"
	"dirigent/internal/telemetry"
	"dirigent/internal/workload"
)

// The service's fixed limits.
const (
	// maxBodyBytes caps request body size.
	maxBodyBytes = 1 << 20
	// commandTimeout bounds how long a control request waits for a tenant's
	// worker to accept it before failing with 503.
	commandTimeout = 10 * time.Second
	// subscriberBuffer is every subscriber's event buffer; a consumer that
	// falls further behind drops events.
	subscriberBuffer = 4096
)

// Config tunes the service. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// MaxTenants caps concurrently hosted tenants (default 256).
	MaxTenants int
	// Runner executes tenant sessions. Its Warmup/TimeLimit defaults apply
	// to every tenant; its profile cache is shared across them (single-
	// flight, so concurrent tenants admitting the same benchmark profile it
	// once). Default: experiment.NewRunner().
	Runner *experiment.Runner
}

func (c Config) withDefaults() Config {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 256
	}
	if c.Runner == nil {
		c.Runner = experiment.NewRunner()
	}
	return c
}

// Server is the multi-tenant QoS control service. Create with New, mount
// via Handler (or ServeHTTP), and stop with Shutdown.
type Server struct {
	cfg    Config
	runner *experiment.Runner
	mux    *http.ServeMux

	mu      sync.Mutex
	tenants map[string]*Tenant
	nextID  int
	closed  bool

	// classRunners lazily clones the base runner per non-default machine
	// class (a runner's profile cache is class-keyed, but its MachineClass
	// field is not per-tenant state, so each class needs its own runner).
	classMu      sync.Mutex
	classRunners map[string]*experiment.Runner
}

// New builds a server ready to serve requests.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		runner:       cfg.Runner,
		mux:          http.NewServeMux(),
		tenants:      map[string]*Tenant{},
		classRunners: map[string]*experiment.Runner{},
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/tenants", s.handleCreate)
	s.mux.HandleFunc("GET /v1/tenants", s.handleList)
	s.mux.HandleFunc("GET /v1/tenants/{id}", s.handleStats)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/tenants/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/tenants/{id}/targets", s.handleRetarget)
	s.mux.HandleFunc("POST /v1/tenants/{id}/fg", s.handleAdmitFG)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}/fg/{stream}", s.handleRemoveFG)
	s.mux.HandleFunc("POST /v1/tenants/{id}/bg", s.handleAdmitBG)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}/bg/{task}", s.handleRemoveBG)
	s.mux.HandleFunc("GET /v1/tenants/{id}/events", s.handleEvents)
	return s
}

// Handler returns the HTTP handler (request-size limiting included).
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// Shutdown gracefully stops the service: no new tenants are admitted, every
// tenant worker is drained, and all subscriber streams are terminated. It
// returns early with ctx's error if the context expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	all := make([]*Tenant, 0, len(s.tenants))
	for id, t := range s.tenants {
		all = append(all, t)
		delete(s.tenants, id)
	}
	s.mu.Unlock()
	for _, t := range all {
		close(t.stop)
	}
	for _, t := range all {
		select {
		case <-t.exited:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Tenants returns the current tenant count.
func (s *Server) Tenants() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// ---- request/response types -------------------------------------------

// MixSpec names a workload mix in API requests.
type MixSpec struct {
	Name string   `json:"name"`
	FG   []string `json:"fg"`
	BG   []string `json:"bg"`
}

// CreateTenantRequest creates one hosted simulation.
type CreateTenantRequest struct {
	// Name is an optional human label (the server assigns the ID).
	Name string `json:"name,omitempty"`
	// Mix is the workload; Config one of the five configuration names.
	Mix    MixSpec `json:"mix"`
	Config string  `json:"config"`
	// Policy names the QoS policy driving the runtime (a registered
	// internal/policy name: dirigent, rtgang, cordlike). Empty defaults to
	// dirigent. Only meaningful for runtime configurations.
	Policy string `json:"policy,omitempty"`
	// MachineClass selects the simulated hardware (machine.ClassNames).
	// Empty means the server runner's class (the xeon-e5 default).
	MachineClass string `json:"machine_class,omitempty"`
	// TargetsNS are per-FG-stream latency targets in nanoseconds; required
	// for runtime configurations (DirigentFreq, Dirigent).
	TargetsNS []int64 `json:"targets_ns,omitempty"`
	// DeadlinesS optionally overrides success-rate deadlines in seconds
	// (defaults to the targets).
	DeadlinesS []float64 `json:"deadlines_s,omitempty"`
	// Executions / ExtraWarmup size the run (0 uses the server defaults).
	Executions  int `json:"executions,omitempty"`
	ExtraWarmup int `json:"extra_warmup,omitempty"`
	// FGWays statically partitions the LLC; BGLevel statically pins BG
	// frequency (omitted = unpinned).
	FGWays  int  `json:"fg_ways,omitempty"`
	BGLevel *int `json:"bg_level,omitempty"`
	// Seed overrides the mix-derived deterministic seed (0 keeps it).
	Seed uint64 `json:"seed,omitempty"`
	// TimeLimitMS bounds the run in simulated milliseconds (0 uses the
	// server runner's default; a negative limit, or one past the simulated
	// clock's range, is refused).
	TimeLimitMS float64 `json:"time_limit_ms,omitempty"`
	// Faults is an optional deterministic fault-injection plan.
	Faults *fault.Plan `json:"faults,omitempty"`
}

type createTenantResponse struct {
	ID string `json:"id"`
}

type retargetRequest struct {
	Stream   int   `json:"stream"`
	TargetNS int64 `json:"target_ns"`
}

type admitFGRequest struct {
	Bench    string `json:"bench"`
	TargetNS int64  `json:"target_ns"`
}

type admitFGResponse struct {
	Stream int `json:"stream"`
}

type admitBGRequest struct {
	// Spec is a BG worker spec: a benchmark name, or "a+b" for a rotate
	// pair — the same syntax experiment mixes use.
	Spec string `json:"spec"`
}

type admitBGResponse struct {
	Task int `json:"task"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tenants": s.Tenants()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	mix := experiment.Mix{Name: req.Mix.Name, FG: req.Mix.FG, BG: req.Mix.BG}
	cfg, err := config.ByName(config.Name(req.Config))
	if err != nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("%s (valid: %s)", err, joinConfigNames()))
		return
	}
	if req.Policy != "" && !policy.Valid(req.Policy) {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("unknown policy %q (valid: %s)", req.Policy, strings.Join(policy.Names(), ", ")))
		return
	}
	if req.MachineClass != "" {
		// machine.ClassConfig's error already lists the valid classes.
		if _, err := machine.ClassConfig(req.MachineClass); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	runner := s.runnerFor(req.MachineClass)
	if cfg.UseRuntime && len(req.TargetsNS) != len(mix.FG) {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("configuration %s needs %d targets_ns, got %d", cfg.Name, len(mix.FG), len(req.TargetsNS)))
		return
	}
	params := experiment.RunParams{
		Config:      cfg.Name,
		Policy:      req.Policy,
		Deadlines:   req.DeadlinesS,
		Executions:  req.Executions,
		ExtraWarmup: req.ExtraWarmup,
		FGWays:      req.FGWays,
		BGLevel:     -1,
		Seed:        req.Seed,
	}
	if req.BGLevel != nil {
		params.BGLevel = *req.BGLevel
	}
	for _, ns := range req.TargetsNS {
		params.Targets = append(params.Targets, time.Duration(ns))
	}
	if req.Faults != nil {
		params.Faults = *req.Faults
	}
	ns := req.TimeLimitMS * float64(time.Millisecond)
	if !(ns >= 0 && ns < math.MaxInt64) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("time_limit_ms %g is negative or overflows the simulated clock", req.TimeLimitMS))
		return
	}
	limit := sim.Time(runner.TimeLimit)
	if ns > 0 {
		limit = sim.Time(ns)
	}

	// Reserve the slot before assembling the session: assembly profiles
	// benchmarks on first use, and racing past MaxTenants during that
	// window would defeat the limit.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
		return
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		s.mu.Unlock()
		// 503, not 429: the limit is server capacity, not client rate — a
		// well-behaved load generator should shed or retry-later, exactly
		// as it would during shutdown. (Earlier releases answered 429.)
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("tenant limit reached (%d)", s.cfg.MaxTenants))
		return
	}
	s.nextID++
	id := "t" + strconv.Itoa(s.nextID)
	s.tenants[id] = nil // placeholder holds the slot
	s.mu.Unlock()

	bcast := newBroadcaster()
	params.Extra = bcast
	sess, err := runner.StartSession(mix, params)
	if err != nil {
		s.mu.Lock()
		delete(s.tenants, id)
		s.mu.Unlock()
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t := newTenant(id, req.Name, runner, sess, bcast, limit, commandTimeout)
	s.mu.Lock()
	if s.closed {
		delete(s.tenants, id)
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errors.New("server shutting down"))
		return
	}
	s.tenants[id] = t
	s.mu.Unlock()
	go t.run()
	writeJSON(w, http.StatusCreated, createTenantResponse{ID: id})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	all := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			all = append(all, t)
		}
	}
	s.mu.Unlock()
	out := make([]TenantStats, 0, len(all))
	for _, t := range all {
		v, err := t.do(func() (any, error) { return t.stats(), nil })
		if err != nil {
			continue // deleted while listing
		}
		out = append(out, v.(TenantStats))
	}
	// Map iteration above is unordered; present tenants stably by ID.
	sortStats(out)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	v, err := t.do(func() (any, error) { return t.stats(), nil })
	if err != nil {
		writeCmdErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok && t != nil {
		delete(s.tenants, id)
	}
	s.mu.Unlock()
	if !ok || t == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	close(t.stop)
	<-t.exited
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	// ?partial=1 collects whatever statistics exist right now instead of
	// refusing mid-run — the snapshot a load generator takes before it
	// evicts a tenant. Collection is read-only and runs on the worker
	// goroutine, so it cannot race the simulation.
	partial := r.URL.Query().Get("partial") == "1" || r.URL.Query().Get("partial") == "true"
	v, err := t.do(func() (any, error) {
		if partial && (t.state == StateRunning || t.result == nil) {
			return t.sess.Collect()
		}
		if t.state == StateRunning {
			return nil, fmt.Errorf("tenant %s still running (%d/%d executions)", t.id, t.sess.Completed(), t.goal)
		}
		if t.result == nil {
			return nil, fmt.Errorf("tenant %s failed: %s", t.id, t.errMsg)
		}
		return t.result, nil
	})
	if err != nil {
		if errors.Is(err, ErrTenantGone) || errors.Is(err, ErrBusy) {
			writeCmdErr(w, err)
			return
		}
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleRetarget(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req retargetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	_, err := t.do(func() (any, error) {
		rt := t.sess.Runtime()
		if rt == nil {
			return nil, fmt.Errorf("configuration %s has no runtime to retarget", t.sess.Config())
		}
		return nil, rt.SetTarget(req.Stream, time.Duration(req.TargetNS))
	})
	if err != nil {
		writeDoErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stream": req.Stream, "target_ns": req.TargetNS})
}

func (s *Server) handleAdmitFG(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req admitFGRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	b, err := workload.ByName(req.Bench)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Profile outside the worker, on the tenant's machine class: the runner
	// cache is single-flight and shared, so a cold profile stalls this
	// request, not the simulation.
	profile, err := t.runner.Profile(req.Bench)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	v, err := t.do(func() (any, error) {
		rt := t.sess.Runtime()
		if rt == nil {
			return nil, fmt.Errorf("configuration %s cannot admit FG streams (no runtime)", t.sess.Config())
		}
		return rt.AdmitStream(b, profile, time.Duration(req.TargetNS))
	})
	if err != nil {
		writeDoErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, admitFGResponse{Stream: v.(int)})
}

func (s *Server) handleRemoveFG(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	stream, err := strconv.Atoi(r.PathValue("stream"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad stream index: %w", err))
		return
	}
	_, err = t.do(func() (any, error) {
		if rt := t.sess.Runtime(); rt != nil {
			return nil, rt.RemoveStream(stream)
		}
		return nil, t.sess.Colocation().RemoveFG(stream)
	})
	if err != nil {
		writeDoErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed_stream": stream})
}

func (s *Server) handleAdmitBG(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req admitBGRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := experiment.ParseBGSpec(req.Spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	v, err := t.do(func() (any, error) {
		if rt := t.sess.Runtime(); rt != nil {
			return rt.AdmitBG(spec)
		}
		worker, err := t.sess.Colocation().AdmitBG(spec)
		if err != nil {
			return nil, err
		}
		return worker.Task, nil
	})
	if err != nil {
		writeDoErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, admitBGResponse{Task: v.(int)})
}

func (s *Server) handleRemoveBG(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	task, err := strconv.Atoi(r.PathValue("task"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad task id: %w", err))
		return
	}
	_, err = t.do(func() (any, error) {
		if rt := t.sess.Runtime(); rt != nil {
			return nil, rt.RemoveBG(task)
		}
		return nil, t.sess.Colocation().RemoveBG(task)
	})
	if err != nil {
		writeDoErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed_task": task})
}

// handleEvents streams the tenant's live telemetry. Default framing is
// JSONL — each line exactly the internal/telemetry trace encoding; SSE
// framing when the client asks for text/event-stream (Accept header or
// ?format=sse). The stream ends when the run completes, the tenant is
// deleted, or the client disconnects; a final frame reports how many events
// this subscriber dropped to backpressure.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	sse := q.Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	quantum := q.Get("quantum") == "1" || q.Get("quantum") == "true"

	sub := t.bcast.subscribe(quantum)
	defer t.bcast.unsubscribe(sub)

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	buf := make([]byte, 0, 256)
	writeEv := func(ev telemetry.Event) bool {
		buf = buf[:0]
		if sse {
			buf = append(buf, "data: "...)
			line := telemetry.AppendJSON(nil, ev)
			buf = append(buf, line[:len(line)-1]...) // strip trailing \n
			buf = append(buf, '\n', '\n')
		} else {
			buf = telemetry.AppendJSON(buf, ev)
		}
		if _, err := w.Write(buf); err != nil {
			return false
		}
		flush()
		return true
	}

	ctx := r.Context()
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				// Stream over: surface this subscriber's backpressure loss.
				tail := fmt.Sprintf(`{"kind":"stream_end","dropped":%d}`, sub.dropped.Load())
				if sse {
					fmt.Fprintf(w, "event: end\ndata: %s\n\n", tail)
				} else {
					fmt.Fprintln(w, tail)
				}
				flush()
				return
			}
			if !writeEv(ev) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// ---- helpers -----------------------------------------------------------

// runnerFor returns the runner for a tenant's machine class: the shared
// base runner for the empty/default class, otherwise a per-class clone of
// its sizing knobs created on first use. Clones share nothing but the
// configuration — each keeps its own profile cache, which is fine because
// profiles are class-specific anyway.
func (s *Server) runnerFor(class string) *experiment.Runner {
	if class == "" || class == s.runner.MachineClass ||
		(class == machine.DefaultClass && s.runner.MachineClass == "") {
		return s.runner
	}
	s.classMu.Lock()
	defer s.classMu.Unlock()
	r, ok := s.classRunners[class]
	if !ok {
		r = experiment.NewRunner()
		r.Executions = s.runner.Executions
		r.Warmup = s.runner.Warmup
		r.CalibExecutions = s.runner.CalibExecutions
		r.ConvergenceWarmup = s.runner.ConvergenceWarmup
		r.TimeLimit = s.runner.TimeLimit
		r.Recorder = s.runner.Recorder
		r.MachineClass = class
		s.classRunners[class] = r
	}
	return r
}

// tenant resolves {id} and writes a 404 when absent.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	t := s.tenants[id]
	s.mu.Unlock()
	if t == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return nil, false
	}
	return t, true
}

// joinConfigNames lists the valid configuration names for 400 messages.
func joinConfigNames() string {
	names := config.Names()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return strings.Join(out, ", ")
}

func sortStats(xs []TenantStats) {
	// IDs are "t<n>"; numeric order reads naturally in listings.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && tenantLess(xs[j].ID, xs[j-1].ID); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func tenantLess(a, b string) bool {
	na, ea := strconv.Atoi(strings.TrimPrefix(a, "t"))
	nb, eb := strconv.Atoi(strings.TrimPrefix(b, "t"))
	if ea == nil && eb == nil {
		return na < nb
	}
	return a < b
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Write errors mean the client went away; nothing useful to do.
	_, _ = w.Write(b)
	_, _ = w.Write([]byte{'\n'})
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeCmdErr maps dispatch failures (worker gone / busy).
func writeCmdErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrTenantGone):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrBusy):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

// writeDoErr maps control-operation failures: dispatch errors keep their
// transport status, everything else is a client-level 409 (the operation
// was understood but the simulation state refuses it).
func writeDoErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrTenantGone) || errors.Is(err, ErrBusy) {
		writeCmdErr(w, err)
		return
	}
	writeErr(w, http.StatusConflict, err)
}
