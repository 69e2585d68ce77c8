package load

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"dirigent/internal/stats"
)

// reportOps is the fixed operation order reports aggregate and render in:
// the three trace operations plus the driver's QoS-snapshot fetch.
var reportOps = [...]Op{OpCreate, OpRetarget, opResult, OpEvict}

func opIndex(op Op) int {
	for i, o := range reportOps {
		if o == op {
			return i
		}
	}
	return len(reportOps) - 1
}

// recorder accumulates per-operation latencies, drops and failures plus
// per-tenant QoS samples during a replay. All methods are safe for
// concurrent use by the dispatch goroutines.
type recorder struct {
	mu         sync.Mutex
	latMS      [len(reportOps)][]float64
	dropped    [len(reportOps)]int
	failed     [len(reportOps)]int
	failSample string
	qos        []float64
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) latency(op Op, d time.Duration) {
	i := opIndex(op)
	r.mu.Lock()
	r.latMS[i] = append(r.latMS[i], float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

func (r *recorder) drop(op Op) {
	i := opIndex(op)
	r.mu.Lock()
	r.dropped[i]++
	r.mu.Unlock()
}

func (r *recorder) fail(op Op, err error) {
	i := opIndex(op)
	r.mu.Lock()
	r.failed[i]++
	if r.failSample == "" {
		r.failSample = err.Error()
	}
	r.mu.Unlock()
}

func (r *recorder) qosSample(v float64) {
	r.mu.Lock()
	r.qos = append(r.qos, v)
	r.mu.Unlock()
}

// OpStats is the per-operation slice of a report: call count, drop/fail
// counts, and the wall-latency distribution in milliseconds.
type OpStats struct {
	Op      Op      `json:"op"`
	N       int     `json:"n"`
	Dropped int     `json:"dropped"`
	Failed  int     `json:"failed"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// Dist summarizes the per-tenant QoS-success samples collected at
// eviction time (mean per-stream success rate of each tenant's partial
// result).
type Dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// Report is the outcome of one replay.
type Report struct {
	Spec        string  `json:"spec"`
	Seed        uint64  `json:"seed"`
	TraceEvents int     `json:"trace_events"`
	Creates     int     `json:"creates"`
	Retargets   int     `json:"retargets"`
	Evicts      int     `json:"evicts"`
	Suppressed  int     `json:"suppressed"`
	Speed       float64 `json:"speed"`
	MaxInFlight int     `json:"max_inflight"`
	WallS       float64 `json:"wall_s"`

	// DroppedTotal counts events the open-loop driver abandoned because
	// they could not start within the late budget (or depended on a
	// dropped create); FailedTotal counts operations the server rejected.
	DroppedTotal int    `json:"dropped_total"`
	FailedTotal  int    `json:"failed_total"`
	FailSample   string `json:"fail_sample,omitempty"`

	// DrainEvicted counts tenants the post-trace drain had to delete;
	// Leaked counts tenants the server still held after the drain — the
	// structural invariant a healthy replay keeps at zero.
	DrainEvicted int      `json:"drain_evicted"`
	Leaked       int      `json:"leaked"`
	LeakedIDs    []string `json:"leaked_ids,omitempty"`

	API []OpStats `json:"api"`
	QoS *Dist     `json:"qos,omitempty"`
}

// report folds the recorder into a Report (trace-level fields are filled
// by the caller).
func (r *recorder) report() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{FailSample: r.failSample}
	for i, op := range reportOps {
		os := OpStats{Op: op, N: len(r.latMS[i]), Dropped: r.dropped[i], Failed: r.failed[i]}
		if os.N > 0 {
			sum, err := stats.Summarize(r.latMS[i])
			if err == nil {
				os.MeanMS, os.P50MS, os.P95MS, os.P99MS, os.MaxMS =
					sum.Mean, sum.P50, sum.P95, sum.P99, sum.Max
			}
		}
		rep.DroppedTotal += os.Dropped
		rep.FailedTotal += os.Failed
		rep.API = append(rep.API, os)
	}
	if len(r.qos) > 0 {
		sum, err := stats.Summarize(r.qos)
		if err == nil {
			rep.QoS = &Dist{
				N: sum.N, Mean: sum.Mean, Min: sum.Min,
				P50: sum.P50, P95: sum.P95, P99: sum.P99,
			}
		}
	}
	return rep
}

// Text renders the report for terminals.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load replay: spec %s seed %d\n", r.Spec, r.Seed)
	fmt.Fprintf(&b, "  trace: %d events (%d creates, %d retargets, %d evicts), %d suppressed by max_live\n",
		r.TraceEvents, r.Creates, r.Retargets, r.Evicts, r.Suppressed)
	fmt.Fprintf(&b, "  drive: %.1fs wall at %gx, %d max in-flight\n", r.WallS, r.Speed, r.MaxInFlight)
	fmt.Fprintf(&b, "  dropped %d, failed %d, drained %d, leaked %d\n",
		r.DroppedTotal, r.FailedTotal, r.DrainEvicted, r.Leaked)
	if r.FailSample != "" {
		fmt.Fprintf(&b, "  first failure: %s\n", r.FailSample)
	}
	fmt.Fprintf(&b, "  %-9s %6s %7s %7s %9s %9s %9s %9s\n",
		"api op", "n", "dropped", "failed", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, os := range r.API {
		if os.N == 0 && os.Dropped == 0 && os.Failed == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %6d %7d %7d %9.2f %9.2f %9.2f %9.2f\n",
			os.Op, os.N, os.Dropped, os.Failed, os.P50MS, os.P95MS, os.P99MS, os.MaxMS)
	}
	if r.QoS != nil {
		fmt.Fprintf(&b, "  qos success (per tenant, n=%d): mean %.3f min %.3f p50 %.3f p95 %.3f p99 %.3f\n",
			r.QoS.N, r.QoS.Mean, r.QoS.Min, r.QoS.P50, r.QoS.P95, r.QoS.P99)
	} else {
		b.WriteString("  qos success: no samples (no tenant completed an execution before eviction)\n")
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("load: encode report: %w", err)
	}
	return string(b) + "\n", nil
}

// Markdown renders the report as a table pair for CI job summaries.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Load replay — %s (seed %d)\n\n", r.Spec, r.Seed)
	fmt.Fprintf(&b, "%d events (%d creates / %d retargets / %d evicts), %.1fs wall at %gx — dropped %d, failed %d, leaked %d\n\n",
		r.TraceEvents, r.Creates, r.Retargets, r.Evicts, r.WallS, r.Speed,
		r.DroppedTotal, r.FailedTotal, r.Leaked)
	b.WriteString("| op | n | dropped | failed | p50 ms | p95 ms | p99 ms |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	for _, os := range r.API {
		if os.N == 0 && os.Dropped == 0 && os.Failed == 0 {
			continue
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %.2f | %.2f | %.2f |\n",
			os.Op, os.N, os.Dropped, os.Failed, os.P50MS, os.P95MS, os.P99MS)
	}
	if r.QoS != nil {
		fmt.Fprintf(&b, "\nQoS success per tenant (n=%d): mean %.3f, p50 %.3f, p95 %.3f, p99 %.3f\n",
			r.QoS.N, r.QoS.Mean, r.QoS.P50, r.QoS.P95, r.QoS.P99)
	}
	return b.String()
}
