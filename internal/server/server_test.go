package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/fault"
)

func testClient(t *testing.T, srv *Server) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts, ts.Client()
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode, string(bytes.TrimSpace(raw))
}

// waitDone polls stats until the tenant leaves StateRunning.
func waitDone(t *testing.T, client *http.Client, base, id string) TenantStats {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st TenantStats
		code, raw := doJSON(t, client, "GET", base+"/v1/tenants/"+id, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("stats %s: %d %s", id, code, raw)
		}
		if st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s still running: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServedDeterminism is the core acceptance test: a tenant created over
// the API with the batch run's exact parameters must produce a RunResult
// byte-identical to the same mix/config driven directly through
// experiment.Runner. The server and the batch runner share one session
// construction and stepping path, so any divergence is a regression.
func TestServedDeterminism(t *testing.T) {
	r := experiment.NewRunner()
	r.Executions = 8
	r.Warmup = 2
	r.ConvergenceWarmup = 10
	mix := experiment.Mix{Name: "served bodytrack pca", FG: []string{"bodytrack"}, BG: []string{"pca", "pca", "pca"}}

	_, deadlines, targets, err := r.Baseline(mix)
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.Run(mix, experiment.RunParams{
		Config: config.Dirigent, Targets: targets, Deadlines: deadlines,
		BGLevel: -1, ExtraWarmup: r.ConvergenceWarmup,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Runner: r})
	ts, client := testClient(t, srv)

	// Re-encode the batch run's derived parameters exactly: targets as
	// integer nanoseconds (the duration truncation the batch runner applied)
	// and deadlines as float64 seconds (JSON round-trips them exactly).
	req := CreateTenantRequest{
		Name:        "determinism",
		Mix:         MixSpec{Name: mix.Name, FG: mix.FG, BG: mix.BG},
		Config:      string(config.Dirigent),
		Executions:  r.Executions,
		ExtraWarmup: r.ConvergenceWarmup,
		DeadlinesS:  deadlines,
	}
	for _, d := range deadlines {
		req.TargetsNS = append(req.TargetsNS, int64(time.Duration(d*float64(time.Second))))
	}
	var created createTenantResponse
	code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}

	st := waitDone(t, client, ts.URL, created.ID)
	if st.State != StateDone {
		t.Fatalf("tenant state = %s (%s)", st.State, st.Error)
	}
	if st.Executions == 0 || st.SimElapsed == 0 {
		t.Errorf("empty stats snapshot: %+v", st)
	}

	code, got := doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+created.ID+"/result", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, got)
	}
	if got != string(want) {
		t.Errorf("served RunResult differs from batch run\nserved: %.200s...\nbatch:  %.200s...", got, want)
	}
}

// TestServeLoad64Tenants drives 64 concurrent tenants, each with a live
// JSONL subscriber, and requires every run to finish with zero events
// dropped to backpressure under the default subscriber buffer.
func TestServeLoad64Tenants(t *testing.T) {
	r := experiment.NewRunner()
	r.Warmup = 1
	srv := New(Config{Runner: r})
	ts, client := testClient(t, srv)

	const tenants = 64
	fgs := []string{"bodytrack", "ferret", "fluidanimate", "raytrace", "streamcluster"}
	ids := make([]string, tenants)
	for i := 0; i < tenants; i++ {
		req := CreateTenantRequest{
			Mix: MixSpec{
				Name: fmt.Sprintf("load-%02d", i),
				FG:   []string{fgs[i%len(fgs)]},
				BG:   []string{"pca"},
			},
			Config:     string(config.Baseline),
			Executions: 2,
		}
		var created createTenantResponse
		code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, &created)
		if code != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, code, raw)
		}
		ids[i] = created.ID
	}
	if got := srv.Tenants(); got != tenants {
		t.Fatalf("Tenants() = %d, want %d", got, tenants)
	}

	// One draining JSONL subscriber per tenant.
	var wg sync.WaitGroup
	tails := make([]string, tenants)
	errs := make([]error, tenants)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, err := client.Get(ts.URL + "/v1/tenants/" + id + "/events")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				errs[i] = fmt.Errorf("content-type %q", ct)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				if line != "" {
					tails[i] = line
				}
			}
			errs[i] = sc.Err()
		}(i, id)
	}
	wg.Wait()

	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("subscriber %s: %v", id, errs[i])
		}
		if !strings.Contains(tails[i], `"stream_end"`) || !strings.Contains(tails[i], `"dropped":0`) {
			t.Errorf("tenant %s: want clean stream_end tail, got %q", id, tails[i])
		}
		st := waitDone(t, client, ts.URL, id)
		if st.State != StateDone {
			t.Errorf("tenant %s: state %s (%s)", id, st.State, st.Error)
		}
		if st.DroppedEvents != 0 {
			t.Errorf("tenant %s: dropped %d events", id, st.DroppedEvents)
		}
		if st.Executions == 0 {
			t.Errorf("tenant %s: no executions recorded", id)
		}
	}

	// List shows all tenants, in ID order.
	var list []TenantStats
	code, raw := doJSON(t, client, "GET", ts.URL+"/v1/tenants", nil, &list)
	if code != http.StatusOK || len(list) != tenants {
		t.Fatalf("list: %d %d tenants %s", code, len(list), raw)
	}
	for i := 1; i < len(list); i++ {
		if !tenantLess(list[i-1].ID, list[i].ID) {
			t.Errorf("list order: %s before %s", list[i-1].ID, list[i].ID)
		}
	}
}

// TestTenantControlPlane exercises mid-run control: retargeting a stream,
// admitting and evicting BG and FG tasks, and deleting the tenant.
func TestTenantControlPlane(t *testing.T) {
	r := experiment.NewRunner()
	r.Warmup = 2
	srv := New(Config{Runner: r})
	ts, client := testClient(t, srv)

	req := CreateTenantRequest{
		Mix:        MixSpec{Name: "ctl ferret bwaves", FG: []string{"ferret"}, BG: []string{"bwaves"}},
		Config:     string(config.DirigentFreq),
		TargetsNS:  []int64{int64(2 * time.Second)},
		Executions: 100_000, // stays running while we poke it (cleanup stops it)
	}
	var created createTenantResponse
	code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	id := created.ID
	base := ts.URL + "/v1/tenants/" + id

	// Result is unavailable while running.
	if code, raw := doJSON(t, client, "GET", base+"/result", nil, nil); code != http.StatusConflict {
		t.Fatalf("result while running: %d %s", code, raw)
	}

	// Retarget stream 0.
	code, raw = doJSON(t, client, "POST", base+"/targets",
		retargetRequest{Stream: 0, TargetNS: int64(1500 * time.Millisecond)}, nil)
	if code != http.StatusOK {
		t.Fatalf("retarget: %d %s", code, raw)
	}
	var st TenantStats
	doJSON(t, client, "GET", base, nil, &st)
	if len(st.TargetsNS) != 1 || st.TargetsNS[0] != int64(1500*time.Millisecond) {
		t.Fatalf("targets after retarget = %v", st.TargetsNS)
	}

	// Admit a BG worker, then evict it.
	var bg admitBGResponse
	code, raw = doJSON(t, client, "POST", base+"/bg", admitBGRequest{Spec: "pca"}, &bg)
	if code != http.StatusCreated {
		t.Fatalf("admit bg: %d %s", code, raw)
	}
	doJSON(t, client, "GET", base, nil, &st)
	if st.ActiveBG != 2 {
		t.Fatalf("ActiveBG = %d, want 2", st.ActiveBG)
	}
	if code, raw := doJSON(t, client, "DELETE", fmt.Sprintf("%s/bg/%d", base, bg.Task), nil, nil); code != http.StatusOK {
		t.Fatalf("remove bg: %d %s", code, raw)
	}
	// A spec naming a FG benchmark is invalid, alone or in a pair; a pair
	// of BG benchmarks is admitted.
	for _, spec := range []string{"ferret", "ferret+namd"} {
		if code, raw := doJSON(t, client, "POST", base+"/bg", admitBGRequest{Spec: spec}, nil); code != http.StatusBadRequest {
			t.Fatalf("admit bg %q: %d %s (want 400)", spec, code, raw)
		}
	}
	if code, raw := doJSON(t, client, "POST", base+"/bg", admitBGRequest{Spec: "lbm+namd"}, nil); code != http.StatusCreated {
		t.Fatalf("admit bg lbm+namd: %d %s", code, raw)
	}

	// Admit a second FG stream with its own target, then evict it.
	var fg admitFGResponse
	code, raw = doJSON(t, client, "POST", base+"/fg",
		admitFGRequest{Bench: "bodytrack", TargetNS: int64(2 * time.Second)}, &fg)
	if code != http.StatusCreated {
		t.Fatalf("admit fg: %d %s", code, raw)
	}
	if fg.Stream != 1 {
		t.Errorf("admitted stream = %d, want 1", fg.Stream)
	}
	doJSON(t, client, "GET", base, nil, &st)
	if st.ActiveFG != 2 || len(st.TargetsNS) != 2 {
		t.Fatalf("after FG admit: ActiveFG=%d targets=%v", st.ActiveFG, st.TargetsNS)
	}
	if code, raw := doJSON(t, client, "DELETE", fmt.Sprintf("%s/fg/%d", base, fg.Stream), nil, nil); code != http.StatusOK {
		t.Fatalf("remove fg: %d %s", code, raw)
	}
	// Evicting the last remaining stream is refused.
	if code, _ := doJSON(t, client, "DELETE", base+"/fg/0", nil, nil); code != http.StatusConflict {
		t.Fatalf("remove last fg: %d, want 409", code)
	}
	doJSON(t, client, "GET", base, nil, &st)
	if st.ActiveFG != 1 || st.State != StateRunning {
		t.Fatalf("after FG evict: %+v", st)
	}

	// Delete stops the worker; the tenant is gone afterwards.
	if code, raw := doJSON(t, client, "DELETE", base, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, raw)
	}
	if code, _ := doJSON(t, client, "GET", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("stats after delete: %d, want 404", code)
	}
}

func TestCreateValidation(t *testing.T) {
	r := experiment.NewRunner()
	srv := New(Config{Runner: r, MaxTenants: 1})
	ts, client := testClient(t, srv)

	base := CreateTenantRequest{Mix: MixSpec{Name: "x", FG: []string{"ferret"}}, Config: string(config.Baseline)}
	with := func(f func(*CreateTenantRequest)) CreateTenantRequest { r := base; f(&r); return r }
	withFaults := func(p fault.Plan) CreateTenantRequest { return with(func(r *CreateTenantRequest) { r.Faults = &p }) }
	cases := []struct {
		name string
		req  CreateTenantRequest
	}{
		{"overflowing time limit", with(func(r *CreateTenantRequest) { r.TimeLimitMS = 1e300 })},
		{"negative time limit", with(func(r *CreateTenantRequest) { r.TimeLimitMS = -1 })},
		{"negative executions", with(func(r *CreateTenantRequest) { r.Executions = -1 })},
		{"negative fg_ways", with(func(r *CreateTenantRequest) { r.FGWays = -2 })},
		{"probability above 1", withFaults(fault.Plan{DVFSFail: 2})},
		{"negative probability", withFaults(fault.Plan{DVFSFail: -1, PauseFail: 5})},
		{"negative DVFS latency", withFaults(fault.Plan{DVFSLatency: -1})},
		{"negative tick latency", withFaults(fault.Plan{TickLatency: -time.Millisecond})},
		{"negative profile scale", withFaults(fault.Plan{ProfileScale: -1})},
		{"unknown config", CreateTenantRequest{
			Mix: MixSpec{Name: "x", FG: []string{"ferret"}}, Config: "Turbo"}},
		{"missing targets", CreateTenantRequest{
			Mix: MixSpec{Name: "x", FG: []string{"ferret"}}, Config: string(config.Dirigent)}},
		{"unknown bench", CreateTenantRequest{
			Mix: MixSpec{Name: "x", FG: []string{"nope"}}, Config: string(config.Baseline)}},
		{"no FG", CreateTenantRequest{
			Mix: MixSpec{Name: "x", BG: []string{"pca"}}, Config: string(config.Baseline)}},
	}
	for _, c := range cases {
		if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", c.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: code %d %s", c.name, code, raw)
		}
	}
	if got := srv.Tenants(); got != 0 {
		t.Fatalf("rejected creates leaked %d tenant slots", got)
	}
	// healthz reports liveness and the hosted tenant count.
	health := func(tenants int) {
		t.Helper()
		want := fmt.Sprintf(`{"ok":true,"tenants":%d}`, tenants)
		if code, raw := doJSON(t, client, "GET", ts.URL+"/v1/healthz", nil, nil); code != http.StatusOK || raw != want {
			t.Errorf("healthz = %d %s, want 200 %s", code, raw, want)
		}
	}
	health(0)

	ok := CreateTenantRequest{
		Mix:        MixSpec{Name: "v ferret pca", FG: []string{"ferret"}, BG: []string{"pca"}},
		Config:     string(config.Baseline),
		Executions: 500,
	}
	var created createTenantResponse
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", ok, &created); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	health(1)
	// Tenant limit.
	ok.Mix.Name = "v2 ferret pca"
	if code, _ := doJSON(t, client, "POST", ts.URL+"/v1/tenants", ok, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit create: %d, want 503", code)
	}
	if code, _ := doJSON(t, client, "GET", ts.URL+"/v1/tenants/t999", nil, nil); code != http.StatusNotFound {
		t.Fatal("unknown tenant should 404")
	}
}

// TestCreateOutOfRangeRun: a negative extra_warmup is refused with 400
// before a tenant exists (accepted, it crashed the tenant worker, and with
// it the process, at the first collect), and an empty deadlines_s on a
// configuration without the runtime runs to its result. The server keeps
// serving: a following create runs to completion and the list shows it.
func TestCreateOutOfRangeRun(t *testing.T) {
	r := experiment.NewRunner()
	r.Executions = 4
	r.Warmup = 1
	srv := New(Config{Runner: r})
	ts, client := testClient(t, srv)

	bad := json.RawMessage(`{"mix":{"name":"neg","fg":["ferret"],"bg":["rs"]},"config":"Baseline","extra_warmup":-100}`)
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", bad, nil); code != http.StatusBadRequest || !strings.Contains(raw, "negative extra warmup") {
		t.Fatalf("negative extra_warmup: %d %s, want 400", code, raw)
	}
	if got := srv.Tenants(); got != 0 {
		t.Fatalf("the rejected create leaked %d tenant slots", got)
	}

	ok := json.RawMessage(`{"mix":{"name":"empty","fg":["ferret"],"bg":["rs"]},"config":"Baseline","deadlines_s":[]}`)
	var created createTenantResponse
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", ok, &created); code != http.StatusCreated {
		t.Fatalf("create after the rejected one: %d %s", code, raw)
	}
	if st := waitDone(t, client, ts.URL, created.ID); st.State != StateDone {
		t.Fatalf("tenant %s ended %s (%s)", created.ID, st.State, st.Error)
	}
	if code, raw := doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+created.ID+"/result", nil, nil); code != http.StatusOK {
		t.Fatalf("result: %d %s", code, raw)
	}
	var list []TenantStats
	if code, raw := doJSON(t, client, "GET", ts.URL+"/v1/tenants", nil, &list); code != http.StatusOK || len(list) != 1 || list[0].ID != created.ID {
		t.Fatalf("list: %d %s, want the one created tenant", code, raw)
	}
}

// TestShutdownDrains verifies graceful shutdown: running workers stop,
// subscriber streams end, and new tenants are refused.
func TestShutdownDrains(t *testing.T) {
	r := experiment.NewRunner()
	srv := New(Config{Runner: r})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	req := CreateTenantRequest{
		Mix:        MixSpec{Name: "shutdown ferret pca", FG: []string{"ferret"}, BG: []string{"pca"}},
		Config:     string(config.Baseline),
		Executions: 100_000, // never finishes on its own
	}
	var created createTenantResponse
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, &created); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}

	// A live subscriber must see its stream end at shutdown.
	streamDone := make(chan error, 1)
	resp, err := client.Get(ts.URL + "/v1/tenants/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		streamDone <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-streamDone:
		if err != nil {
			t.Errorf("subscriber stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber stream did not end at shutdown")
	}
	if code, _ := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown: %d, want 503", code)
	}
	if got := srv.Tenants(); got != 0 {
		t.Fatalf("tenants after shutdown: %d", got)
	}
}

// TestEventsBufferFixed: every subscriber gets subscriberBuffer events of
// buffer, so no events request can make the server allocate more.
func TestEventsBufferFixed(t *testing.T) {
	srv := New(Config{Runner: experiment.NewRunner()})
	ts, client := testClient(t, srv)
	req := CreateTenantRequest{
		Mix:        MixSpec{Name: "buffer ferret pca", FG: []string{"ferret"}, BG: []string{"pca"}},
		Config:     string(config.Baseline),
		Executions: 100_000, // never finishes on its own
	}
	var created createTenantResponse
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, &created); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	resp, err := client.Get(ts.URL + "/v1/tenants/" + created.ID + "/events?buffer=1048576")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	srv.mu.Lock()
	b := srv.tenants[created.ID].bcast
	srv.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	for sub := range b.subs {
		if cap(sub.ch) != subscriberBuffer {
			t.Errorf("subscriber buffer holds %d events, want %d", cap(sub.ch), subscriberBuffer)
		}
	}
	if len(b.subs) != 1 {
		t.Errorf("%d live subscribers, want 1", len(b.subs))
	}
}

// TestPolicyTenants exercises the policy engine over the API: bad policy
// names 400 with the valid set listed, and a tenant under each registered
// policy runs to completion with the policy label in its stats and its
// streamed telemetry.
func TestPolicyTenants(t *testing.T) {
	r := experiment.NewRunner()
	srv := New(Config{Runner: r})
	ts, client := testClient(t, srv)

	bad := CreateTenantRequest{
		Mix:       MixSpec{Name: "x", FG: []string{"ferret"}, BG: []string{"pca"}},
		Config:    string(config.DirigentFreq),
		Policy:    "nope",
		TargetsNS: []int64{int64(time.Second)},
	}
	code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", bad, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bogus policy: %d %s, want 400", code, raw)
	}
	for _, name := range []string{"dirigent", "rtgang", "cordlike"} {
		if !strings.Contains(raw, name) {
			t.Errorf("400 body %q should list policy %q", raw, name)
		}
	}
	if got := srv.Tenants(); got != 0 {
		t.Fatalf("rejected creates leaked %d tenant slots", got)
	}

	for _, name := range []string{"dirigent", "rtgang", "cordlike"} {
		req := CreateTenantRequest{
			Mix:        MixSpec{Name: "p " + name, FG: []string{"ferret"}, BG: []string{"pca", "pca"}},
			Config:     string(config.Dirigent),
			Policy:     name,
			TargetsNS:  []int64{int64(2 * time.Second)},
			Executions: 6,
		}
		var created createTenantResponse
		if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, &created); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, raw)
		}
		st := waitDone(t, client, ts.URL, created.ID)
		if st.State != StateDone {
			t.Fatalf("%s: state %s (%s)", name, st.State, st.Error)
		}
		if st.Policy != name {
			t.Errorf("%s: stats policy %q", name, st.Policy)
		}
		// The run's decision events must carry the policy label through the
		// JSONL trace framing subscribers use.
		var result experiment.RunResult
		if code, raw := doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+created.ID+"/result", nil, &result); code != http.StatusOK {
			t.Fatalf("%s result: %d %s", name, code, raw)
		}
		if result.Policy != name {
			t.Errorf("%s: result policy %q", name, result.Policy)
		}
		if result.Fine.Decisions == 0 {
			t.Errorf("%s: no fine decisions recorded", name)
		}
	}
}
