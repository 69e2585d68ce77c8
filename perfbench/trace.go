package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Req is the request the span belongs to: a session or tenant label.
	Req     string `json:"req,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs and phases use it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNs: now, EndNs: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// selfTimes returns every closed span's self time in nanoseconds: its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[int]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndNs >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.EndNs < 0 {
			continue
		}
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.EndNs - s.StartNs - covered
	}
	return out
}

// layerTable summarises self time by span name: count, total and median
// self time, and the share of all self time.
func (t *tracer) layerTable() []layerRow {
	self := t.selfTimes()
	t.mu.Lock()
	byName := map[string][]float64{}
	total := 0.0
	for _, s := range t.spans {
		if v, ok := self[s.ID]; ok {
			byName[s.Name] = append(byName[s.Name], float64(v))
			total += float64(v)
		}
	}
	t.mu.Unlock()
	var rows []layerRow
	for _, name := range sortedKeys(byName) {
		xs := byName[name]
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		rows = append(rows, layerRow{name: name, n: len(xs), totalNs: sum, medianNs: median(xs), share: sum / total})
	}
	return rows
}

type layerRow struct {
	name     string
	n        int
	totalNs  float64
	medianNs float64
	share    float64
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
