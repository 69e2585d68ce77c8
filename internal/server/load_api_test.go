package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/core"
	"dirigent/internal/experiment"
)

// The load generator's eviction path snapshots QoS mid-run; ?partial=1 must
// answer while the tenant is still running, and the plain result endpoint
// must keep refusing.
func TestPartialResult(t *testing.T) {
	r := experiment.NewRunner()
	r.Executions = 6
	r.Warmup = 1
	srv := New(Config{Runner: r})
	ts, client := testClient(t, srv)

	req := CreateTenantRequest{
		Mix:        MixSpec{Name: "partial ferret pca", FG: []string{"ferret"}, BG: []string{"pca"}},
		Config:     string(config.Baseline),
		Executions: 6,
		DeadlinesS: []float64{1.5},
	}
	var created createTenantResponse
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", req, &created); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	id := created.ID

	// The worker steps in the background; both snapshot shapes must hold
	// whether we catch it running or already done.
	var st TenantStats
	doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+id, nil, &st)
	var partial experiment.RunResult
	code, raw := doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+id+"/result?partial=1", nil, &partial)
	if code != http.StatusOK {
		t.Fatalf("partial result while %s: %d %s", st.State, code, raw)
	}
	if len(partial.Streams) == 0 {
		t.Errorf("partial result has no streams: %s", raw)
	}
	if st.State == StateRunning {
		code, _ := doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+id+"/result", nil, nil)
		// The worker may finish between the stats snapshot and this call, in
		// which case 200 is correct; only a 200 while still running is a bug.
		doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+id, nil, &st)
		if code != http.StatusConflict && st.State == StateRunning {
			t.Errorf("non-partial result while running: %d, want 409", code)
		}
	}

	// Once done, partial must return the same payload as the final result.
	waitDone(t, client, ts.URL, id)
	var fin, finPartial experiment.RunResult
	if code, raw := doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+id+"/result", &struct{}{}, &fin); code != http.StatusOK {
		t.Fatalf("final result: %d %s", code, raw)
	}
	if code, raw := doJSON(t, client, "GET", ts.URL+"/v1/tenants/"+id+"/result?partial=1", nil, &finPartial); code != http.StatusOK {
		t.Fatalf("final partial result: %d %s", code, raw)
	}
	if len(fin.Streams) != len(finPartial.Streams) {
		t.Errorf("final vs partial stream counts differ: %d vs %d", len(fin.Streams), len(finPartial.Streams))
	}
}

func TestCreateMachineClass(t *testing.T) {
	srv := New(Config{})
	ts, client := testClient(t, srv)

	// Unknown class: 400 naming the valid ones.
	bad := CreateTenantRequest{
		Mix:          MixSpec{Name: "mc ferret", FG: []string{"ferret"}},
		Config:       string(config.Baseline),
		MachineClass: "cray-1",
	}
	code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", bad, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, "quad-low") {
		t.Fatalf("bad class: %d %s", code, raw)
	}

	// Valid class: the tenant runs on it (quad-low has 4 cores, so a mix
	// that fits the default 6-core class but needs 5 cores must fail at
	// session assembly — proof the per-class runner is actually used).
	tooWide := CreateTenantRequest{
		Mix:          MixSpec{Name: "mc wide", FG: []string{"ferret"}, BG: []string{"pca", "pca", "pca", "pca"}},
		Config:       string(config.Baseline),
		MachineClass: "quad-low",
	}
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", tooWide, nil); code != http.StatusBadRequest {
		t.Fatalf("over-wide mix on quad-low: %d %s (want 400)", code, raw)
	}

	good := CreateTenantRequest{
		Mix:          MixSpec{Name: "mc ferret pca", FG: []string{"ferret"}, BG: []string{"pca"}},
		Config:       string(config.Baseline),
		MachineClass: "quad-low",
		Executions:   4,
		DeadlinesS:   []float64{1.5},
	}
	var created createTenantResponse
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", good, &created); code != http.StatusCreated {
		t.Fatalf("create on quad-low: %d %s", code, raw)
	}
	st := waitDone(t, client, ts.URL, created.ID)
	if st.State != StateDone {
		t.Fatalf("quad-low tenant ended %s (%s)", st.State, st.Error)
	}

	// An FG stream admitted mid-run is profiled on the tenant's class: its
	// predictor must hold quad-low's profile, not the default class's.
	managed := CreateTenantRequest{
		Mix:          MixSpec{Name: "mc admit", FG: []string{"ferret"}, BG: []string{"pca"}},
		Config:       string(config.Dirigent),
		MachineClass: "quad-low",
		TargetsNS:    []int64{int64(1500 * time.Millisecond)},
		Executions:   100_000, // stays running while the stream is admitted
	}
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants", managed, &created); code != http.StatusCreated {
		t.Fatalf("create Dirigent tenant on quad-low: %d %s", code, raw)
	}
	var fg admitFGResponse
	if code, raw := doJSON(t, client, "POST", ts.URL+"/v1/tenants/"+created.ID+"/fg",
		admitFGRequest{Bench: "bodytrack", TargetNS: int64(2 * time.Second)}, &fg); code != http.StatusCreated {
		t.Fatalf("admit fg on quad-low: %d %s", code, raw)
	}
	srv.mu.Lock()
	tn := srv.tenants[created.ID]
	srv.mu.Unlock()
	v, err := tn.do(func() (any, error) {
		return tn.sess.Runtime().Predictors()[fg.Stream].Profile(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	qr := experiment.NewRunner()
	qr.MachineClass = "quad-low"
	want, err := qr.Profile("bodytrack")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*core.Profile); !reflect.DeepEqual(got, want) {
		t.Errorf("admitted bodytrack predicts from a %d-segment profile, want quad-low's %d segments",
			len(got.Segments), len(want.Segments))
	}
}
