package benchreg

import (
	"fmt"
	"math"
	"strings"
)

// PerfMode controls how perf-metric regressions beyond the fail threshold
// are treated.
type PerfMode string

const (
	// PerfFail is the default: large perf regressions fail the gate. Use it
	// whenever baseline and check run on the same machine.
	PerfFail PerfMode = "fail"
	// PerfWarn demotes perf failures to warnings — for cloud CI runners
	// whose hardware differs from the machine the baseline was recorded on.
	// Exact (QoS) metrics still hard-fail.
	PerfWarn PerfMode = "warn"
	// PerfOff skips perf comparison entirely.
	PerfOff PerfMode = "off"
)

// ParsePerfMode validates a -perf flag value.
func ParsePerfMode(s string) (PerfMode, error) {
	switch PerfMode(s) {
	case PerfFail, PerfWarn, PerfOff:
		return PerfMode(s), nil
	}
	return "", fmt.Errorf("benchreg: perf mode %q (want fail, warn, or off)", s)
}

// Policy is the per-metric comparison tolerance.
type Policy struct {
	// WarnRatio and FailRatio bound the regression of a perf metric
	// relative to its baseline value: 1.08 warns beyond +8%, 1.30 fails
	// beyond +30%. Only used for Kind Perf.
	WarnRatio, FailRatio float64
	// Epsilon is the relative tolerance of an exact metric: deviations
	// beyond it fail. Only used for Kind Exact.
	Epsilon float64
}

// defaultPerfPolicy tolerates scheduler jitter on a shared machine but
// catches real slowdowns: the self-test's injected ~2x Step slowdown and
// any optimisation that rots by tens of percent both land far past
// FailRatio.
var defaultPerfPolicy = Policy{WarnRatio: 1.08, FailRatio: 1.30}

// defaultExactPolicy absorbs only float-printing noise; simulation results
// are seed-deterministic, so anything beyond it is a behaviour change.
var defaultExactPolicy = Policy{Epsilon: 1e-9}

// policyOverrides adjusts individual metrics. The telemetry overhead ratio
// gets a wider band: it is a quotient of two timings, so its noise is the
// sum of both.
var policyOverrides = map[string]Policy{
	"machine_step_telemetry_ratio": {WarnRatio: 1.12, FailRatio: 1.40},
}

func policyFor(m *Metric) Policy {
	if p, ok := policyOverrides[m.Name]; ok {
		return p
	}
	if m.Kind == Perf {
		return defaultPerfPolicy
	}
	return defaultExactPolicy
}

// Outcome classifies one metric comparison.
type Outcome string

const (
	OK      Outcome = "ok"
	Warn    Outcome = "warn"
	Fail    Outcome = "fail"
	New     Outcome = "new"
	Missing Outcome = "missing"
)

// Finding is one metric's comparison result.
type Finding struct {
	Metric  string     `json:"metric"`
	Unit    string     `json:"unit"`
	Kind    MetricKind `json:"kind"`
	Outcome Outcome    `json:"outcome"`
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
	BaselinePath string   `json:"baseline_path,omitempty"`
	Perf         PerfMode `json:"perf_mode"`
	// EnvComparable is false when the baseline was recorded on different
	// hardware; perf failures are demoted to warnings in that case.
	EnvComparable bool      `json:"env_comparable"`
	Findings      []Finding `json:"findings"`
	Warns         int       `json:"warns"`
	Fails         int       `json:"fails"`
}

// OK reports whether the gate passes (warnings allowed, failures not).
func (r *Report) OK() bool { return r.Fails == 0 }

// Compare holds a fresh suite run against a baseline. Perf metrics compare
// min-of-N within a tolerance band; exact metrics must match to within
// float noise. Metrics present on only one side are reported (a vanished
// metric fails — a silently dropped probe is itself a regression).
func Compare(base, cur *Baseline, mode PerfMode) *Report {
	r := &Report{Perf: mode, EnvComparable: base.Env.Comparable(cur.Env)}
	for i := range base.Metrics {
		bm := &base.Metrics[i]
		cm := cur.Metric(bm.Name)
		if cm == nil {
			r.add(Finding{Metric: bm.Name, Unit: bm.Unit, Kind: bm.Kind, Outcome: Fail,
				Base: bm.Value(),
				Msg:  "metric missing from this run; the probe was dropped or renamed"})
			continue
		}
		r.add(compareOne(bm, cm, mode, r.EnvComparable))
	}
	for i := range cur.Metrics {
		cm := &cur.Metrics[i]
		if base.Metric(cm.Name) == nil {
			r.add(Finding{Metric: cm.Name, Unit: cm.Unit, Kind: cm.Kind, Outcome: New,
				Cur: cm.Value(),
				Msg: "not in the baseline; re-record to start tracking it"})
		}
	}
	return r
}

func (r *Report) add(f Finding) {
	switch f.Outcome {
	case Warn:
		r.Warns++
	case Fail:
		r.Fails++
	}
	r.Findings = append(r.Findings, f)
}

func compareOne(bm, cm *Metric, mode PerfMode, envComparable bool) Finding {
	f := Finding{Metric: bm.Name, Unit: bm.Unit, Kind: bm.Kind, Base: bm.Value(), Cur: cm.Value(), Outcome: OK}
	if f.Base != 0 {
		f.Delta = f.Cur/f.Base - 1
	}
	pol := policyFor(bm)
	switch bm.Kind {
	case Perf:
		if mode == PerfOff {
			f.Msg = "perf comparison disabled"
			return f
		}
		// Perf metrics are lower-is-better except those flagged
		// HigherBetter; the ratio is oriented so > 1 is always a
		// regression.
		ratio := math.Inf(1)
		if bm.HigherBetter {
			if f.Cur > 0 {
				ratio = f.Base / f.Cur
			}
		} else if f.Base > 0 {
			ratio = f.Cur / f.Base
		}
		worseWord := "slower"
		if bm.HigherBetter {
			worseWord = "worse"
		}
		switch {
		case ratio <= pol.WarnRatio:
			// Within the noise band (improvements land here too).
		case ratio <= pol.FailRatio:
			f.Outcome = Warn
			f.Msg = fmt.Sprintf("%.1f%% %s than baseline (warn above +%.0f%%)",
				(ratio-1)*100, worseWord, (pol.WarnRatio-1)*100)
		default:
			f.Outcome = Fail
			f.Msg = fmt.Sprintf("%.1f%% %s than baseline (fail above +%.0f%%)",
				(ratio-1)*100, worseWord, (pol.FailRatio-1)*100)
			if mode == PerfWarn {
				f.Outcome = Warn
				f.Msg += "; demoted to warning by -perf warn"
			} else if !envComparable {
				f.Outcome = Warn
				f.Msg += "; demoted to warning: baseline recorded on different hardware"
			}
		}
	case Exact:
		scale := math.Max(math.Abs(f.Base), math.Abs(f.Cur))
		if scale == 0 {
			return f // both zero: identical
		}
		if math.Abs(f.Cur-f.Base)/scale <= pol.Epsilon {
			return f
		}
		f.Outcome = Fail
		worse := f.Cur < f.Base == bm.HigherBetter
		if worse {
			f.Msg = fmt.Sprintf("deterministic QoS metric regressed from %g to %g", f.Base, f.Cur)
		} else {
			f.Msg = fmt.Sprintf("deterministic metric changed from %g to %g (an improvement? re-record the baseline to accept it)", f.Base, f.Cur)
		}
	default:
		f.Outcome = Fail
		f.Msg = fmt.Sprintf("unknown metric kind %q", bm.Kind)
	}
	return f
}

// Text renders the report for terminals.
func (r *Report) Text() string {
	var b strings.Builder
	if r.BaselinePath != "" {
		fmt.Fprintf(&b, "baseline: %s\n", r.BaselinePath)
	}
	if !r.EnvComparable {
		fmt.Fprintf(&b, "note: baseline recorded on different hardware; perf thresholds demoted to warnings\n")
	}
	fmt.Fprintf(&b, "%-44s %-8s %14s %14s %9s  %s\n", "metric", "outcome", "baseline", "current", "delta", "note")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%-44s %-8s %14.6g %14.6g %+8.2f%%  %s\n",
			f.Metric, f.Outcome, f.Base, f.Cur, f.Delta*100, f.Msg)
	}
	fmt.Fprintf(&b, "%d metrics, %d warnings, %d failures\n", len(r.Findings), r.Warns, r.Fails)
	return b.String()
}

// Markdown renders the report as a GitHub-flavoured table (for CI job
// summaries).
func (r *Report) Markdown() string {
	var b strings.Builder
	b.WriteString("### Perf/QoS regression gate\n\n")
	if r.BaselinePath != "" {
		fmt.Fprintf(&b, "Baseline: `%s`", r.BaselinePath)
		if !r.EnvComparable {
			b.WriteString(" _(different hardware — perf thresholds demoted to warnings)_")
		}
		b.WriteString("\n\n")
	}
	b.WriteString("| metric | outcome | baseline | current | delta | note |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	for _, f := range r.Findings {
		icon := map[Outcome]string{OK: "✅", Warn: "⚠️", Fail: "❌", New: "🆕", Missing: "❌"}[f.Outcome]
		fmt.Fprintf(&b, "| `%s` | %s %s | %.6g | %.6g | %+.2f%% | %s |\n",
			f.Metric, icon, f.Outcome, f.Base, f.Cur, f.Delta*100, f.Msg)
	}
	fmt.Fprintf(&b, "\n**%d metrics, %d warnings, %d failures**\n", len(r.Findings), r.Warns, r.Fails)
	return b.String()
}
