package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dirigent/internal/server"
)

// The server probe: every API route called probeCalls times in sequence
// against an otherwise idle in-process server holding one long-running
// tenant and one finished tenant, so each route's p99 has ten samples
// beyond it. Route latencies are reported raw: much of a handler's time is
// spent waiting for the tenant worker's next batch boundary and for the Go
// scheduler, which CPU-speed correction would distort.

const probeCalls = 1000

// The tenants the probe and serve-control host: ferret with three BG
// workers on the six-core xeon-e5, leaving cores free for BG admission.
var controlMix = server.MixSpec{FG: []string{"ferret"}, BG: []string{"lbm", "rs", "pca"}}

// Retargets alternate between these two values, around ferret's
// co-located execution time.
var retargetNs = [2]int64{1300e6, 1500e6}

// liveRequest describes a tenant that runs until deleted.
func liveRequest(name string) server.CreateTenantRequest {
	return server.CreateTenantRequest{
		Mix:        server.MixSpec{Name: name, FG: controlMix.FG, BG: controlMix.BG},
		Config:     "Dirigent",
		TargetsNS:  []int64{retargetNs[0]},
		Executions: 1 << 30,
		// Far beyond any run, so the tenant never hits its limit.
		TimeLimitMS: 1e12,
	}
}

// finishedRequest describes a tenant of n executions under cfg, with
// deadlines so its QoS is accounted even under Baseline.
func finishedRequest(name, cfg string, n int) server.CreateTenantRequest {
	r := server.CreateTenantRequest{
		Mix:        server.MixSpec{Name: name, FG: controlMix.FG, BG: controlMix.BG},
		Config:     cfg,
		DeadlinesS: []float64{float64(retargetNs[0]) / 1e9},
		Executions: n,
	}
	if cfg != "Baseline" {
		r.TargetsNS = []int64{retargetNs[0]}
	}
	return r
}

func probeServer(costs *probeResults) (*httpStats, error) {
	base, shutdown, err := startServer()
	if err != nil {
		return nil, err
	}
	// The probe's requests are not spans: the span table describes the
	// workload.
	st := newHTTPStats()
	c := newClient(base, st)
	defer c.close()
	err = probeRoutes(c, st, costs)
	if serr := shutdown(); err == nil {
		err = serr
	}
	return st, err
}

func probeRoutes(c *client, st *httpStats, costs *probeResults) error {
	live, err := c.create(liveRequest("probe-live"), 0)
	if err != nil {
		return err
	}
	done, err := c.create(finishedRequest("probe-done", "Baseline", 4), 0)
	if err != nil {
		return err
	}
	if _, err := c.waitDone(done, "probe-done", 0); err != nil {
		return err
	}
	// Stats alternate between the running and the finished tenant; the
	// difference of their medians is the wait for the worker's attention.
	var running, finished []float64
	for i := 0; i < probeCalls; i++ {
		t0 := time.Now()
		if _, err := c.stats(live, "", 0); err != nil {
			return err
		}
		running = append(running, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		if _, err := c.stats(done, "", 0); err != nil {
			return err
		}
		finished = append(finished, float64(time.Since(t0))/1e6)
	}
	for i := 0; i < probeCalls; i++ {
		if _, err := c.result(done, "", 0); err != nil {
			return err
		}
		if _, err := c.call(routePartial, http.MethodGet, "/v1/tenants/"+live+"/result?partial=1", nil, http.StatusOK, "", 0); err != nil {
			return err
		}
		if _, err := c.call(routeList, http.MethodGet, "/v1/tenants", nil, http.StatusOK, "", 0); err != nil {
			return err
		}
		body := map[string]any{"stream": 0, "target_ns": retargetNs[i%2]}
		if _, err := c.call(routeRetarget, http.MethodPost, "/v1/tenants/"+live+"/targets", body, http.StatusOK, "", 0); err != nil {
			return err
		}
		task, err := admitBG(c, live, "", 0)
		if err != nil {
			return err
		}
		if err := evictBG(c, live, task, "", 0); err != nil {
			return err
		}
	}
	// Create and delete short tenants; every twentieth runs to completion
	// first, which is what the polling figures count.
	for i := 0; i < probeCalls; i++ {
		name := "probe-" + strconv.Itoa(i)
		id, err := c.create(finishedRequest(name, "Baseline", 2), 0)
		if err != nil {
			return err
		}
		if i%20 == 0 {
			if _, err := c.waitDone(id, name, 0); err != nil {
				return err
			}
		}
		if err := c.remove(id, name, 0); err != nil {
			return err
		}
	}
	if err := c.remove(live, "", 0); err != nil {
		return err
	}
	if err := c.remove(done, "", 0); err != nil {
		return err
	}

	lat := st.routeLatencies()
	for _, r := range routes {
		for _, p := range []float64{0.5, 0.99} {
			v, ok := percentile(lat[r], p)
			if !ok {
				return fmt.Errorf("server probe: %d %s samples", len(lat[r]), r)
			}
			costs.add(fmt.Sprintf("server.%s_p%g_ms", r, p*100), "ms", v, v, fmt.Sprintf("n=%d, idle server, raw", len(lat[r])))
		}
	}
	wait := median(running) - median(finished)
	costs.add("server.cmd_wait_p50_ms", "ms", wait, wait, "median stats on a running tenant minus on a finished one, raw")
	st.mu.Lock()
	polls, useful, polled := st.polls, st.pollsUseful, st.polled
	st.mu.Unlock()
	costs.add("server.polls_per_tenant", "count", float64(polls)/float64(polled), float64(polls)/float64(polled),
		fmt.Sprintf("%d tenants polled to completion", polled))
	costs.add("server.poll_useful_share", "share", float64(useful)/float64(polls), float64(useful)/float64(polls), "polls that found the tenant finished")
	return nil
}

// admitBG admits an lbm worker and returns its task id.
func admitBG(c *client, id, req string, parent int) (int, error) {
	b, err := c.call(routeAdmitBG, http.MethodPost, "/v1/tenants/"+id+"/bg", map[string]string{"spec": "lbm"}, http.StatusCreated, req, parent)
	if err != nil {
		return 0, err
	}
	var resp struct {
		Task *int `json:"task"`
	}
	if err := json.Unmarshal(b, &resp); err != nil || resp.Task == nil {
		return 0, fmt.Errorf("admit bg: bad reply %q", b)
	}
	return *resp.Task, nil
}

// evictBG evicts BG task and checks that the reply names it.
func evictBG(c *client, id string, task int, req string, parent int) error {
	b, err := c.call(routeEvictBG, http.MethodDelete, "/v1/tenants/"+id+"/bg/"+strconv.Itoa(task), nil, http.StatusOK, req, parent)
	if err != nil {
		return err
	}
	var resp struct {
		Removed *int `json:"removed_task"`
	}
	if err := json.Unmarshal(b, &resp); err != nil || resp.Removed == nil || *resp.Removed != task {
		return fmt.Errorf("evict bg %d: reply %q does not echo the task", task, b)
	}
	return nil
}
