package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dirigent/internal/load"
	"dirigent/internal/server"
)

// The API routes the benchmark times, by the name used in metric names.
const (
	routeCreate   = "create"
	routeStats    = "stats"
	routeResult   = "result"
	routePartial  = "partial"
	routeRetarget = "retarget"
	routeAdmitBG  = "admit_bg"
	routeEvictBG  = "evict_bg"
	routeList     = "list"
	routeDelete   = "delete"
)

var routes = []string{routeCreate, routeStats, routeResult, routePartial, routeRetarget, routeAdmitBG, routeEvictBG, routeList, routeDelete}

// httpStats counts what a run's HTTP calls saw. Shared by a run's clients.
type httpStats struct {
	mu     sync.Mutex
	lat    map[string][]float64 // raw ms per route
	non2xx int
	// polls and pollsUseful count stats calls made to detect completion
	// and the ones that found it; polled counts tenants polled to the end.
	polls, pollsUseful, polled int
}

func newHTTPStats() *httpStats { return &httpStats{lat: map[string][]float64{}} }

// startServer boots an in-process dirigent-serve (load.StartLocal) and
// returns its base URL and a stop function that is safe to call twice.
func startServer() (string, func() error, error) {
	base, shutdown, err := load.StartLocal(server.Config{})
	if err != nil {
		return "", nil, err
	}
	var once sync.Once
	var serr error
	return base, func() error {
		once.Do(func() { serr = shutdown() })
		return serr
	}, nil
}

// client is one client connection to the server: its own transport, so a
// pool of clients holds exactly one connection each.
type client struct {
	base string
	hc   *http.Client
	st   *httpStats
	tr   *tracer
}

func newClient(base string, st *httpStats) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, st: st}
}

// close releases the client's idle connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and reads the whole reply. It returns an error
// for a transport failure or a status other than want, and counts the
// non-2xx replies.
func (c *client) call(route, method, path string, body any, want int, req string, parent int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	hreq, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	id := c.tr.begin("http."+route, req, parent)
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
	}
	d := time.Since(t0)
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.st.mu.Lock()
	c.st.lat[route] = append(c.st.lat[route], float64(d)/1e6)
	if resp.StatusCode/100 != 2 {
		c.st.non2xx++
	}
	c.st.mu.Unlock()
	if resp.StatusCode != want {
		return out, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return out, nil
}

// create creates a tenant and returns its id.
func (c *client) create(r server.CreateTenantRequest, parent int) (string, error) {
	b, err := c.call(routeCreate, http.MethodPost, "/v1/tenants", r, http.StatusCreated, r.Mix.Name, parent)
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &resp); err != nil || resp.ID == "" {
		return "", fmt.Errorf("create %s: bad reply %q", r.Mix.Name, b)
	}
	return resp.ID, nil
}

// stats fetches a tenant's stats.
func (c *client) stats(id, req string, parent int) (server.TenantStats, error) {
	var st server.TenantStats
	b, err := c.call(routeStats, http.MethodGet, "/v1/tenants/"+id, nil, http.StatusOK, req, parent)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("stats %s: %w", id, err)
	}
	return st, nil
}

// waitDone polls stats back to back until the tenant leaves the running
// state. Each poll is answered at the tenant worker's next batch boundary,
// so the loop is paced by the simulation itself, not by a sleep.
func (c *client) waitDone(id, req string, parent int) (server.TenantStats, error) {
	n := 0
	for {
		st, err := c.stats(id, req, parent)
		if err != nil {
			return st, err
		}
		n++
		if st.State != server.StateRunning {
			c.st.mu.Lock()
			c.st.polls += n
			c.st.pollsUseful++
			c.st.polled++
			c.st.mu.Unlock()
			if st.State != server.StateDone {
				return st, fmt.Errorf("tenant %s ended %s: %s", id, st.State, st.Error)
			}
			return st, nil
		}
	}
}

// waitCompleted polls stats back to back until a running tenant has
// completed n executions.
func (c *client) waitCompleted(id string, n int, req string, parent int) error {
	for {
		st, err := c.stats(id, req, parent)
		if err != nil {
			return err
		}
		if st.State != server.StateRunning {
			return fmt.Errorf("tenant %s ended %s: %s", id, st.State, st.Error)
		}
		if st.Completed >= n {
			return nil
		}
	}
}

// result fetches a tenant's final result, raw.
func (c *client) result(id, req string, parent int) ([]byte, error) {
	return c.call(routeResult, http.MethodGet, "/v1/tenants/"+id+"/result", nil, http.StatusOK, req, parent)
}

// remove deletes a tenant.
func (c *client) remove(id, req string, parent int) error {
	_, err := c.call(routeDelete, http.MethodDelete, "/v1/tenants/"+id, nil, http.StatusOK, req, parent)
	return err
}

// routeLatencies returns a copy of the per-route samples.
func (s *httpStats) routeLatencies() map[string][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]float64, len(s.lat))
	for k, v := range s.lat {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// reportRoutes prints each route's latency under the workload (raw ms).
func (s *httpStats) reportRoutes(rep *report) {
	lat := s.routeLatencies()
	names := make([]string, 0, len(lat))
	for k := range lat {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, r := range names {
		xs := lat[r]
		for _, p := range []float64{0.5, 0.99} {
			if v, ok := percentile(xs, p); ok {
				rep.info(fmt.Sprintf("route.%s_p%g_ms", r, p*100), "ms", v, fmt.Sprintf("n=%d, raw", len(xs)))
			}
		}
	}
}
