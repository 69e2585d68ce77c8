package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one line of the human-readable table printed before the result.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

// report collects one run's figures. End-to-end metrics go to the result
// line of an untraced run, per-layer metrics to that of a traced run;
// every figure, including raw values and sample counts, is also printed in
// the table above it.
type report struct {
	workload  string
	attempted int
	failed    int
	problems  []string

	// http is the workload's request record, when it makes requests.
	http *httpStats

	rows    []row
	e2e     map[string]metric
	layer   map[string]metric
	missing []string
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]metric{}, layer: map[string]metric{}}
}

// endToEnd records an end-to-end metric.
func (r *report) endToEnd(name, unit string, v float64, note string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	r.rows = append(r.rows, row{name, v, unit, note})
}

// perLayer records a per-layer metric.
func (r *report) perLayer(name, unit string, v float64, note string) {
	r.layer[name] = metric{Value: v, Unit: unit}
	r.rows = append(r.rows, row{name, v, unit, note})
}

// info records a figure that is printed but not part of the result line
// (raw values beside corrected ones, sample counts, failed_share).
func (r *report) info(name, unit string, v float64, note string) {
	r.rows = append(r.rows, row{name, v, unit, note})
}

// pct records an end-to-end percentile when enough samples lie beyond it,
// and notes it as missing otherwise.
func (r *report) pct(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok {
		r.missing = append(r.missing, fmt.Sprintf("%s: %d samples, fewer than %d beyond p%g", name, len(xs), minTail, p*100))
		return
	}
	r.endToEnd(name, "ms", v, fmt.Sprintf("n=%d", len(xs)))
}

// pctInfo prints a percentile when enough samples lie beyond it.
func (r *report) pctInfo(name string, xs []float64, p float64, note string) {
	if v, ok := percentile(xs, p); ok {
		r.info(name, "ms", v, fmt.Sprintf("n=%d, %s", len(xs), note))
		return
	}
	r.rows = append(r.rows, row{name, 0, "ms", fmt.Sprintf("not reported: n=%d", len(xs))})
}

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// write prints the table, any failed checks, and the result line.
func (r *report) write(w io.Writer, traced bool) {
	r.writeTable(w)
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if traced {
		res.Metrics = r.layer
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Every value is a finite number (the caller drops the others).
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// writeTable prints every figure, any missing percentiles and failed checks.
func (r *report) writeTable(w io.Writer) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, x := range r.rows {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", x.name, x.value, x.unit, x.note)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-8s failed %d of %d attempted\n", "failed_share", share, "share", r.failed, r.attempted)
	for _, m := range r.missing {
		fmt.Fprintf(w, "  not reported: %s\n", m)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
