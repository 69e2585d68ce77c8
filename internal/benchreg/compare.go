package benchreg

import (
	"fmt"
	"math"
	"strings"
)

// epsilon is the relative tolerance of every comparison. It absorbs only
// float-printing noise: the probes are seed-deterministic, so anything
// beyond it is a behaviour change.
const epsilon = 1e-9

// Outcome classifies one metric comparison.
type Outcome string

const (
	OK   Outcome = "ok"
	Fail Outcome = "fail"
	New  Outcome = "new"
)

// Finding is one metric's comparison result.
type Finding struct {
	Metric  string  `json:"metric"`
	Unit    string  `json:"unit"`
	Outcome Outcome `json:"outcome"`
	// Base and Cur are the compared values (baseline and fresh run).
	Base float64 `json:"base"`
	Cur  float64 `json:"cur"`
	// Delta is the relative change (cur/base - 1); 0 when base is 0.
	Delta float64 `json:"delta"`
	// Msg explains non-OK outcomes.
	Msg string `json:"msg,omitempty"`
}

// Report is the outcome of holding a fresh run against a baseline.
type Report struct {
	BaselinePath string    `json:"baseline_path,omitempty"`
	Findings     []Finding `json:"findings"`
	Fails        int       `json:"fails"`
}

// OK reports whether the gate passes.
func (r *Report) OK() bool { return r.Fails == 0 }

// Compare holds a fresh suite run against a baseline: every metric must
// match to within epsilon. Metrics present on only one side are reported;
// a vanished metric fails, since a silently dropped probe is itself a
// regression.
func Compare(base, cur *Baseline) *Report {
	r := &Report{}
	for i := range base.Metrics {
		bm := &base.Metrics[i]
		cm := cur.Metric(bm.Name)
		if cm == nil {
			r.add(Finding{Metric: bm.Name, Unit: bm.Unit, Outcome: Fail,
				Base: bm.Value(),
				Msg:  "metric missing from this run; the probe was dropped or renamed"})
			continue
		}
		r.add(compareOne(bm, cm))
	}
	for i := range cur.Metrics {
		cm := &cur.Metrics[i]
		if base.Metric(cm.Name) == nil {
			r.add(Finding{Metric: cm.Name, Unit: cm.Unit, Outcome: New,
				Cur: cm.Value(),
				Msg: "not in the baseline; re-record to start tracking it"})
		}
	}
	return r
}

func (r *Report) add(f Finding) {
	if f.Outcome == Fail {
		r.Fails++
	}
	r.Findings = append(r.Findings, f)
}

func compareOne(bm, cm *Metric) Finding {
	f := Finding{Metric: bm.Name, Unit: bm.Unit, Base: bm.Value(), Cur: cm.Value(), Outcome: OK}
	if f.Base != 0 {
		f.Delta = f.Cur/f.Base - 1
	}
	scale := math.Max(math.Abs(f.Base), math.Abs(f.Cur))
	if scale == 0 || math.Abs(f.Cur-f.Base)/scale <= epsilon {
		return f
	}
	f.Outcome = Fail
	if f.Cur < f.Base == bm.HigherBetter {
		f.Msg = fmt.Sprintf("deterministic QoS metric regressed from %g to %g", f.Base, f.Cur)
	} else {
		f.Msg = fmt.Sprintf("deterministic metric changed from %g to %g (an improvement? re-record the baseline to accept it)", f.Base, f.Cur)
	}
	return f
}

// Text renders the report for terminals.
func (r *Report) Text() string {
	var b strings.Builder
	if r.BaselinePath != "" {
		fmt.Fprintf(&b, "baseline: %s\n", r.BaselinePath)
	}
	fmt.Fprintf(&b, "%-44s %-8s %14s %14s %9s  %s\n", "metric", "outcome", "baseline", "current", "delta", "note")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%-44s %-8s %14.6g %14.6g %+8.2f%%  %s\n",
			f.Metric, f.Outcome, f.Base, f.Cur, f.Delta*100, f.Msg)
	}
	fmt.Fprintf(&b, "%d metrics, %d failures\n", len(r.Findings), r.Fails)
	return b.String()
}

// Markdown renders the report as a GitHub-flavoured table (for CI job
// summaries).
func (r *Report) Markdown() string {
	var b strings.Builder
	b.WriteString("### QoS regression gate\n\n")
	if r.BaselinePath != "" {
		fmt.Fprintf(&b, "Baseline: `%s`\n\n", r.BaselinePath)
	}
	b.WriteString("| metric | outcome | baseline | current | delta | note |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	for _, f := range r.Findings {
		icon := map[Outcome]string{OK: "✅", Fail: "❌", New: "🆕"}[f.Outcome]
		fmt.Fprintf(&b, "| `%s` | %s %s | %.6g | %.6g | %+.2f%% | %s |\n",
			f.Metric, icon, f.Outcome, f.Base, f.Cur, f.Delta*100, f.Msg)
	}
	fmt.Fprintf(&b, "\n**%d metrics, %d failures**\n", len(r.Findings), r.Fails)
	return b.String()
}
