package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dirigent/internal/config"
	"dirigent/internal/core"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/stats"
	"dirigent/internal/workload"
)

// This file regenerates the paper's tables and figures. Each generator
// returns a data structure plus a Render method producing the textual form
// the dirigent-bench tool prints; EXPERIMENTS.md records the outputs.

// ---------------------------------------------------------------- Table 1

// Table1 renders the benchmark catalog in the paper's Table 1 layout.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: FG and BG Benchmarks\n")
	fmt.Fprintf(&b, "%-8s %-14s %s\n", "Type", "Name", "Phases (instr budget)")
	row := func(kind string, bench *workload.Benchmark) {
		names := make([]string, len(bench.Phases))
		for i, p := range bench.Phases {
			names[i] = p.Name
		}
		fmt.Fprintf(&b, "%-8s %-14s %s (%.2g)\n", kind, bench.Name, strings.Join(names, ", "), bench.TotalInstructions())
	}
	for _, bench := range workload.FG() {
		row("FG", bench)
	}
	for _, bench := range workload.SingleBG() {
		row("SingleBG", bench)
	}
	for _, bench := range workload.RotateBenchmarks() {
		row("RotateBG", bench)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 4

// FGOverviewRow is one bar group of Fig. 4.
type FGOverviewRow struct {
	Bench       string
	AloneSec    float64
	ContendSec  float64
	AloneMPKI   float64
	ContendMPKI float64
}

// FGOverview measures each FG benchmark alone and against five bwaves
// copies (Fig. 4's setup).
func (r *Runner) FGOverview() ([]FGOverviewRow, error) {
	var rows []FGOverviewRow
	for _, fg := range fgNames() {
		alone, err := r.standalone(fg)
		if err != nil {
			return nil, err
		}
		cont, err := r.Run(Mix{Name: fg + " bwaves", FG: []string{fg}, BG: repeat("bwaves", 5)},
			RunParams{Config: config.Baseline, BGLevel: -1, Executions: r.Executions / 2})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FGOverviewRow{
			Bench:       fg,
			AloneSec:    alone.Streams[0].Summary.Mean,
			ContendSec:  cont.Streams[0].Summary.Mean,
			AloneMPKI:   alone.Streams[0].MPKI,
			ContendMPKI: cont.Streams[0].MPKI,
		})
	}
	return rows, nil
}

// RenderFGOverview formats Fig. 4.
func RenderFGOverview(rows []FGOverviewRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: Overview of FG Workloads (exec time s, LLC MPKI; contended = +5x bwaves)\n")
	fmt.Fprintf(&b, "%-14s %10s %12s %10s %12s\n", "workload", "t(alone)", "t(contend)", "MPKI(al)", "MPKI(cont)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.3f %12.3f %10.2f %12.2f\n",
			r.Bench, r.AloneSec, r.ContendSec, r.AloneMPKI, r.ContendMPKI)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 5

// BGOverviewRow is one bar of Fig. 5.
type BGOverviewRow struct {
	Workload    string
	TotalMPKFGI float64
	FGShare     float64
}

// BGOverview measures each BG workload's intrusiveness with ferret as the
// representative FG (Fig. 5's setup): total machine L3 misses per thousand
// FG instructions, and the FG's share of all misses.
func (r *Runner) BGOverview() ([]BGOverviewRow, error) {
	workloads := []string{"bwaves", "pca", "rs"}
	for _, p := range workload.RotatePairs() {
		workloads = append(workloads, p[0]+"+"+p[1])
	}
	var rows []BGOverviewRow
	for _, w := range workloads {
		mix := Mix{Name: "ferret " + w, FG: []string{"ferret"}, BG: repeat(w, 5)}
		run, err := r.Run(mix, RunParams{Config: config.Baseline, BGLevel: -1, Executions: r.Executions / 2})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BGOverviewRow{
			Workload:    strings.ReplaceAll(w, "+", " "),
			TotalMPKFGI: run.TotalMPKFGI(),
			FGShare:     run.FGMissShare(),
		})
	}
	// Stable, with the name as tiebreak, so a tie's order does not depend on
	// the Go release's sort algorithm.
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.TotalMPKFGI < b.TotalMPKFGI || b.TotalMPKFGI < a.TotalMPKFGI {
			return a.TotalMPKFGI < b.TotalMPKFGI
		}
		return a.Workload < b.Workload
	})
	return rows, nil
}

// RenderBGOverview formats Fig. 5.
func RenderBGOverview(rows []BGOverviewRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5: Overview of BG Workloads (FG = ferret), ascending intrusiveness\n")
	fmt.Fprintf(&b, "%-20s %14s %14s\n", "BG workload", "total MPKFGI", "FG miss share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %14.2f %14.2f\n", r.Workload, r.TotalMPKFGI, r.FGShare)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 6/7

// PredictionPoint is one execution of a prediction probe.
type PredictionPoint struct {
	// ActualSec and PredictedSec are the execution time and its midpoint
	// prediction.
	ActualSec    float64
	PredictedSec float64
}

// Error returns |predicted − actual| / actual (one term of Eq. 3).
func (p PredictionPoint) Error() float64 {
	if p.ActualSec <= 0 {
		return 0
	}
	return math.Abs(p.PredictedSec-p.ActualSec) / p.ActualSec
}

// PredictionProbeResult is the outcome of a predictor evaluation run.
type PredictionProbeResult struct {
	Mix Mix
	// Points are per-execution (actual, midpoint-prediction) pairs in
	// completion order, excluding training executions.
	Points []PredictionPoint
	// MeanError is Eq. 3 over Points.
	MeanError float64
	// NormalizedStd is std/mean of the actual execution times.
	NormalizedStd float64
}

// PredictionProbe runs a mix in the Baseline configuration (no resource
// management, §5.2) on the runner's machine class, while feeding the first
// FG stream's progress to a Dirigent predictor every ΔT, recording the
// prediction made at the midpoint of each execution. The first `skip`
// executions are treated as training (the penalty EMAs need at least one
// pass) and excluded.
func (r *Runner) PredictionProbe(mix Mix, executions, skip int) (*PredictionProbeResult, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	profile, err := r.Profile(mix.FG[0])
	if err != nil {
		return nil, err
	}
	return r.predictionProbe(mix, profile, core.DefaultEMAWeight, executions, skip)
}

// predictionProbe is PredictionProbe with a given profile and EMA weight.
func (r *Runner) predictionProbe(mix Mix, profile *core.Profile, weight float64, executions, skip int) (*PredictionProbeResult, error) {
	sess, err := r.StartSession(mix, RunParams{Config: config.Baseline, BGLevel: -1, Executions: executions})
	if err != nil {
		return nil, err
	}
	colo := sess.Colocation()
	m := colo.Machine()

	pred, err := core.NewPredictor(profile, weight)
	if err != nil {
		return nil, err
	}
	pred.BeginExecution(0)
	fgTask := colo.FG()[0].Task
	instrAtStart := 0.0
	mid := pred.Segments() / 2

	var all []PredictionPoint
	var cur PredictionPoint
	havePred := false
	var probeErr error
	colo.OnComplete(func(stream int, e sched.Execution) {
		if stream != 0 || probeErr != nil {
			return
		}
		if err := pred.FinishExecution(e.End); err != nil {
			probeErr = err
			return
		}
		cur.ActualSec = e.Duration.Seconds()
		if havePred {
			all = append(all, cur)
		}
		cur, havePred = PredictionPoint{}, false
		pred.BeginExecution(e.End)
		instrAtStart = m.Counters().Task(fgTask).Instructions
	})

	tick := sim.MustTicker(profile.SamplePeriod)
	limit := sim.Time(r.TimeLimit)
	for len(all) < executions && m.Now() < limit && probeErr == nil {
		// Batch up to the next sampler tick; Advance also stops at each
		// completion, so OnComplete observes every execution at its exact
		// quantum.
		colo.Advance(min(tick.NextDue(), limit))
		if !tick.Fire(m.Now()) {
			continue
		}
		progress := m.Counters().Task(fgTask).Instructions - instrAtStart
		if err := pred.Observe(m.Now(), progress); err != nil {
			return nil, err
		}
		if !havePred && pred.SegmentIndex() >= mid {
			d, err := pred.PredictDuration(m.Now())
			if err != nil {
				return nil, err
			}
			cur.PredictedSec = d.Seconds()
			havePred = true
		}
	}
	if probeErr != nil {
		return nil, probeErr
	}
	if len(all) <= skip {
		return nil, fmt.Errorf("experiment: prediction probe got only %d executions", len(all))
	}
	pts := all[skip:]
	res := &PredictionProbeResult{Mix: mix, Points: pts}
	var errSum float64
	actuals := make([]float64, len(pts))
	for i, p := range pts {
		errSum += p.Error()
		actuals[i] = p.ActualSec
	}
	res.MeanError = errSum / float64(len(pts))
	sum, err := stats.Summarize(actuals)
	if err != nil {
		return nil, err
	}
	res.NormalizedStd = sum.CV()
	return res, nil
}

// RenderPredictionTrace formats Fig. 6: a per-execution trace (cycles at
// the 2 GHz nominal clock, like the paper's y-axis).
func RenderPredictionTrace(res *PredictionProbeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6: Prediction Trace for %s (midpoint predictions, %d consecutive executions)\n",
		res.Mix.Name, len(res.Points))
	fmt.Fprintf(&b, "%5s %14s %14s %8s\n", "exec", "actual(cyc)", "predict(cyc)", "error")
	for i, p := range res.Points {
		fmt.Fprintf(&b, "%5d %14.4g %14.4g %7.2f%%\n",
			i+1, p.ActualSec*2e9, p.PredictedSec*2e9, p.Error()*100)
	}
	fmt.Fprintf(&b, "mean error %.2f%%\n", res.MeanError*100)
	return b.String()
}

// PredictionAccuracy runs the predictor probe over all 35 single-FG mixes
// (Fig. 7) concurrently.
func (r *Runner) PredictionAccuracy(executions, skip int) ([]*PredictionProbeResult, error) {
	mixes := AllSingleFGMixes()
	return FanOut(len(mixes), func(i int) (*PredictionProbeResult, error) {
		res, err := r.PredictionProbe(mixes[i], executions, skip)
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", mixes[i].Name, err)
		}
		return res, nil
	})
}

// RenderPredictionAccuracy formats Fig. 7.
func RenderPredictionAccuracy(results []*PredictionProbeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7: Prediction Accuracy for all FG-BG mixes\n")
	if len(results) == 0 {
		fmt.Fprintf(&b, "no results\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-34s %12s %14s\n", "mix", "avg error", "normalized std")
	var errSum float64
	for _, res := range results {
		fmt.Fprintf(&b, "%-34s %11.2f%% %13.2f%%\n", res.Mix.Name, res.MeanError*100, res.NormalizedStd*100)
		errSum += res.MeanError
	}
	fmt.Fprintf(&b, "overall average error %.2f%%\n", errSum/float64(len(results))*100)
	return b.String()
}

// AblationRow is one predictor setting of the predictor ablation: the EMA
// weight, ΔT and the profile's segment count at it, and Eq. 3's error.
type AblationRow struct {
	EMAWeight    float64
	SamplePeriod time.Duration
	Segments     int
	MeanError    float64
}

// PredictorAblation reruns the Fig. 7 probe on ferret against five bwaves
// at other predictor settings, for §4.2's robustness claims: EMA weights
// 0.1, 0.2 and 0.3 at ΔT = 5 ms, then ΔT = 10 and 20 ms at weight 0.2.
func (r *Runner) PredictorAblation(executions, skip int) ([]AblationRow, error) {
	mix := Mix{Name: "ferret bwaves", FG: []string{"ferret"}, BG: repeat("bwaves", 5)}
	ms := time.Millisecond
	rows := []AblationRow{{0.1, 5 * ms, 0, 0}, {0.2, 5 * ms, 0, 0}, {0.3, 5 * ms, 0, 0}, {0.2, 10 * ms, 0, 0}, {0.2, 20 * ms, 0, 0}}
	return FanOut(len(rows), func(i int) (AblationRow, error) {
		row := rows[i]
		profile, err := r.profile(mix.FG[0], row.SamplePeriod)
		if err != nil {
			return row, err
		}
		res, err := r.predictionProbe(mix, profile, row.EMAWeight, executions, skip)
		if err != nil {
			return row, err
		}
		row.Segments, row.MeanError = len(profile.Segments), res.MeanError
		return row, nil
	})
}

// RenderPredictorAblation formats the predictor ablation.
func RenderPredictorAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Predictor ablation: midpoint error vs EMA weight and sampling period (ferret bwaves)\n")
	fmt.Fprintf(&b, "%10s %8s %9s %10s\n", "EMA weight", "period", "segments", "avg error")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.1f %8v %9d %9.2f%%\n", r.EMAWeight, r.SamplePeriod, r.Segments, r.MeanError*100)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 8

// PartitionSweepResult holds Fig. 8's exhaustive partition search plus the
// coarse controller's convergence on the same mix.
type PartitionSweepResult struct {
	Mix Mix
	// Ways and MeanSec are the sweep axes: static FG partition size vs mean
	// FG execution time.
	Ways    []int
	MeanSec []float64
	// Knee is the smallest way count achieving 95% of the total
	// improvement between the smallest and the best partition — the visual
	// knee of the Fig. 8 curve.
	Knee int
	// DirigentWays is where the coarse controller converged.
	DirigentWays int
	// DirigentExecutions is how many FG executions it took to reach the
	// final partition.
	DirigentExecutions int
}

// PartitionSweep performs the Fig. 8 experiment: an exhaustive static sweep
// of FG partition sizes for a mix (BG at full speed, no fine control), then
// a Dirigent run to see where the coarse heuristic converges.
func (r *Runner) PartitionSweep(mix Mix, minWays, maxWays int) (*PartitionSweepResult, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	res := &PartitionSweepResult{Mix: mix}
	best := math.Inf(1)
	for w := minWays; w <= maxWays; w++ {
		run, err := r.Run(mix, RunParams{Config: config.StaticBoth, FGWays: w, BGLevel: -1, Executions: r.Executions / 2})
		if err != nil {
			return nil, err
		}
		mean := run.Streams[0].Summary.Mean
		res.Ways = append(res.Ways, w)
		res.MeanSec = append(res.MeanSec, mean)
		if mean < best {
			best = mean
		}
	}
	worst := stats.Max(res.MeanSec)
	span := worst - best
	for i, m := range res.MeanSec {
		if span <= 0 || m <= best+float64(0.05*span) {
			res.Knee = res.Ways[i]
			break
		}
	}

	// Dirigent run: baseline first for the deadline, then full Dirigent.
	_, deadlines, targets, err := r.Baseline(mix)
	if err != nil {
		return nil, err
	}
	dir, err := r.Run(mix, RunParams{Config: config.Dirigent, Targets: targets, Deadlines: deadlines, BGLevel: -1})
	if err != nil {
		return nil, err
	}
	res.DirigentWays = dir.FGWays
	res.DirigentExecutions = dir.ConvergedAtExecution
	return res, nil
}

// RenderPartitionSweep formats Fig. 8.
func RenderPartitionSweep(res *PartitionSweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8: Exhaustive Search on Partition Size (%s)\n", res.Mix.Name)
	fmt.Fprintf(&b, "%6s %12s %10s\n", "ways", "mean (s)", "vs best")
	best := stats.Min(res.MeanSec)
	for i, w := range res.Ways {
		fmt.Fprintf(&b, "%6d %12.3f %9.2f%%\n", w, res.MeanSec[i], (res.MeanSec[i]/best-1)*100)
	}
	fmt.Fprintf(&b, "knee at %d ways; Dirigent converged to %d ways after %d executions\n",
		res.Knee, res.DirigentWays, res.DirigentExecutions)
	return b.String()
}

// ---------------------------------------------------------- Fig. 9/10/13/14

// RenderComparison formats Fig. 9-style per-mix bars: FG success rate and
// relative BG throughput for every configuration.
func RenderComparison(title string, results []*MixResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-36s", "mix")
	for _, c := range config.Names() {
		fmt.Fprintf(&b, " %12s", c)
	}
	fmt.Fprintf(&b, "   (each cell: FG success / rel BG throughput)\n")
	for _, mr := range results {
		fmt.Fprintf(&b, "%-36s", mr.Mix.Name)
		for _, c := range config.Names() {
			run := mr.ByConfig[c]
			fmt.Fprintf(&b, "  %4.2f/%5.2f", run.MeanSuccessRate(), mr.RelBGThroughput(c))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// SummaryRow is one configuration's aggregate (Fig. 10/13).
type SummaryRow struct {
	Config config.Name
	// FGRatio is the arithmetic mean FG success rate.
	FGRatio float64
	// BGThroughput is the harmonic mean relative BG throughput.
	BGThroughput float64
	// RelStd is the arithmetic mean normalized standard deviation.
	RelStd float64
}

// Summarize aggregates mix results in the paper's way: arithmetic mean of
// FG success, harmonic mean of relative BG throughput (Fig. 10/13), and
// mean normalized std (Fig. 14 summary).
func Summarize(results []*MixResult) ([]SummaryRow, error) {
	var rows []SummaryRow
	for _, c := range config.Names() {
		var fg, relStd float64
		var bgs []float64
		for _, mr := range results {
			run := mr.ByConfig[c]
			if run == nil {
				return nil, fmt.Errorf("experiment: mix %s missing config %s", mr.Mix.Name, c)
			}
			fg += run.MeanSuccessRate()
			relStd += mr.RelStd(c)
			bgs = append(bgs, mr.RelBGThroughput(c))
		}
		n := float64(len(results))
		hm, err := stats.HarmonicMean(bgs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SummaryRow{
			Config:       c,
			FGRatio:      fg / n,
			BGThroughput: hm,
			RelStd:       relStd / n,
		})
	}
	return rows, nil
}

// RenderSummary formats Fig. 10/13.
func RenderSummary(title string, rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %10s %14s %10s\n", "config", "FG ratio", "BG throughput", "rel std")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.3f %14.3f %10.3f\n", r.Config, r.FGRatio, r.BGThroughput, r.RelStd)
	}
	return b.String()
}

// RenderNormalizedStd formats Fig. 14: per-mix normalized std per config.
func RenderNormalizedStd(results []*MixResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14: Normalized Standard Deviation of Multiple FG Workload Mixes\n")
	fmt.Fprintf(&b, "%-36s", "mix")
	for _, c := range config.Names() {
		fmt.Fprintf(&b, " %12s", c)
	}
	fmt.Fprintf(&b, "\n")
	for _, mr := range results {
		fmt.Fprintf(&b, "%-36s", mr.Mix.Name)
		for _, c := range config.Names() {
			fmt.Fprintf(&b, " %12.2f", mr.RelStd(c))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 11

// PDFCurves builds execution-time probability density curves per
// configuration over a shared range (Fig. 11).
func PDFCurves(mr *MixResult, bins int) (map[config.Name]*stats.Histogram, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range config.Names() {
		run := mr.ByConfig[c]
		if run == nil || len(run.Streams) == 0 {
			return nil, fmt.Errorf("experiment: missing run for %s", c)
		}
		for _, d := range run.Streams[0].Durations {
			lo = math.Min(lo, d)
			hi = math.Max(hi, d)
		}
	}
	if !(lo < hi) {
		hi = lo + 1e-3
	}
	out := map[config.Name]*stats.Histogram{}
	for _, c := range config.Names() {
		h, err := stats.NewHistogram(lo, hi+1e-9, bins)
		if err != nil {
			return nil, err
		}
		for _, d := range mr.ByConfig[c].Streams[0].Durations {
			h.Add(d)
		}
		out[c] = h
	}
	return out, nil
}

// RenderPDFCurves formats Fig. 11.
func RenderPDFCurves(mix Mix, curves map[config.Name]*stats.Histogram) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11: Execution Time Probability Density (%s)\n", mix.Name)
	// Pick the reference histogram (bin axis) in stable config order, not
	// map order, so the rendered axis is reproducible.
	var any *stats.Histogram
	for _, c := range config.Names() {
		if h, ok := curves[c]; ok {
			any = h
			break
		}
	}
	if any == nil {
		return ""
	}
	fmt.Fprintf(&b, "%12s", "t (s)")
	for _, c := range config.Names() {
		fmt.Fprintf(&b, " %12s", c)
	}
	fmt.Fprintf(&b, "\n")
	for i := range any.Counts {
		fmt.Fprintf(&b, "%12.3f", any.BinCenter(i))
		for _, c := range config.Names() {
			fmt.Fprintf(&b, " %12.2f", curves[c].PDF()[i])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 12

// FreqDistRow is the BG-core frequency residency distribution of one
// configuration, over the Dirigent grades of the machine class.
type FreqDistRow struct {
	Config config.Name
	// GHz are the grade frequencies; Fraction the time share at each.
	GHz      []float64
	Fraction []float64
}

// FreqDistribution extracts Fig. 12 from a mix result of this runner: the
// distribution of BG core frequencies under DirigentFreq and Dirigent, over
// the runner's machine class's ladder.
func (r *Runner) FreqDistribution(mr *MixResult) ([]FreqDistRow, error) {
	levels, grades, err := r.ladder()
	if err != nil {
		return nil, err
	}
	var rows []FreqDistRow
	for _, c := range []config.Name{config.DirigentFreq, config.Dirigent} {
		run := mr.ByConfig[c]
		if run == nil {
			return nil, fmt.Errorf("experiment: missing run for %s", c)
		}
		var total time.Duration
		for _, d := range run.BGFreqResidency {
			total += d
		}
		row := FreqDistRow{Config: c}
		for _, g := range grades {
			row.GHz = append(row.GHz, levels[g])
			frac := 0.0
			if total > 0 {
				frac = float64(run.BGFreqResidency[g]) / float64(total)
			}
			row.Fraction = append(row.Fraction, frac)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFreqDistribution formats Fig. 12.
func RenderFreqDistribution(mix Mix, rows []FreqDistRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12: BG Core Frequency Distribution (%s)\n", mix.Name)
	fmt.Fprintf(&b, "%-14s", "config")
	for _, g := range rows[0].GHz {
		fmt.Fprintf(&b, " %8.1fGHz", g)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Config)
		for _, f := range r.Fraction {
			fmt.Fprintf(&b, " %11.2f", f)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 15

// TradeoffPoint is one target setting of the Fig. 15 sweep.
type TradeoffPoint struct {
	// TargetFactor is the deadline as a multiple of standalone mean time.
	TargetFactor float64
	// FGMeanNorm is mean FG execution time normalized to standalone.
	FGMeanNorm float64
	// FGStdNorm is FG std normalized to Baseline std.
	FGStdNorm float64
	// BGThroughput is relative to Baseline.
	BGThroughput float64
	// SuccessRate against the swept target.
	SuccessRate float64
}

// TradeoffSweep runs Fig. 15: full Dirigent on a mix with the latency
// target swept from the standalone mean upward, reporting how FG time
// stretches to the target and converts into BG throughput.
func (r *Runner) TradeoffSweep(mix Mix, factors []float64) ([]TradeoffPoint, float64, error) {
	if err := mix.Validate(); err != nil {
		return nil, 0, err
	}
	// Standalone mean.
	alone, err := r.standalone(mix.FG[0])
	if err != nil {
		return nil, 0, err
	}
	standalone := alone.Streams[0].Summary.Mean

	// Baseline for normalization.
	base, _, _, err := r.Baseline(mix)
	if err != nil {
		return nil, 0, err
	}
	baseStd := base.Streams[0].Summary.Std
	baseBG := base.BGInstrRate

	var out []TradeoffPoint
	for _, f := range factors {
		target := standalone * f
		run, err := r.Run(mix, RunParams{
			Config:    config.Dirigent,
			Targets:   []time.Duration{time.Duration(target * float64(time.Second))},
			Deadlines: []float64{target},
			BGLevel:   -1,
		})
		if err != nil {
			return nil, 0, err
		}
		pt := TradeoffPoint{
			TargetFactor: f,
			FGMeanNorm:   run.Streams[0].Summary.Mean / standalone,
			BGThroughput: run.BGInstrRate / baseBG,
			SuccessRate:  run.Streams[0].SuccessRate,
		}
		if baseStd > 0 {
			pt.FGStdNorm = run.Streams[0].Summary.Std / baseStd
		}
		out = append(out, pt)
	}
	return out, standalone, nil
}

// RenderTradeoff formats Fig. 15.
func RenderTradeoff(mix Mix, standalone float64, pts []TradeoffPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 15: FG Throughput vs BG Performance Tradeoff (%s, standalone %.3fs)\n", mix.Name, standalone)
	fmt.Fprintf(&b, "%8s %12s %12s %14s %10s\n", "target", "FG mean", "FG std", "BG throughput", "success")
	for _, p := range pts {
		fmt.Fprintf(&b, "%7.2fx %12.3f %12.3f %14.3f %10.2f\n",
			p.TargetFactor, p.FGMeanNorm, p.FGStdNorm, p.BGThroughput, p.SuccessRate)
	}
	return b.String()
}

// ---------------------------------------------------------------- Headline

// Headline aggregates the paper's headline numbers over single-FG mixes:
// std reduction and BG cost for Dirigent and DirigentFreq, plus the BG
// advantage over the static schemes.
type Headline struct {
	DirigentStdReduction     float64 // paper: ~85%
	DirigentBGLoss           float64 // paper: ~9%
	DirigentFreqStdReduction float64 // paper: ~70%
	DirigentFreqBGLoss       float64 // paper: ~15%
	StaticBGLoss             float64 // paper: ~40% (best static scheme)
	DirigentVsStaticBGGain   float64 // paper: ~30%
	DirigentFGSuccess        float64 // paper: >99%
	BaselineFGSuccess        float64 // paper: ~60%
}

// ComputeHeadline derives the headline numbers from mix results.
func ComputeHeadline(results []*MixResult) (Headline, error) {
	rows, err := Summarize(results)
	if err != nil {
		return Headline{}, err
	}
	byName := map[config.Name]SummaryRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	staticBG := math.Max(byName[config.StaticFreq].BGThroughput, byName[config.StaticBoth].BGThroughput)
	h := Headline{
		DirigentStdReduction:     1 - byName[config.Dirigent].RelStd,
		DirigentBGLoss:           1 - byName[config.Dirigent].BGThroughput,
		DirigentFreqStdReduction: 1 - byName[config.DirigentFreq].RelStd,
		DirigentFreqBGLoss:       1 - byName[config.DirigentFreq].BGThroughput,
		StaticBGLoss:             1 - staticBG,
		DirigentFGSuccess:        byName[config.Dirigent].FGRatio,
		BaselineFGSuccess:        byName[config.Baseline].FGRatio,
	}
	if staticBG > 0 {
		h.DirigentVsStaticBGGain = byName[config.Dirigent].BGThroughput/staticBG - 1
	}
	return h, nil
}

// Render formats the headline numbers.
func (h Headline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline numbers (paper values in parentheses)\n")
	fmt.Fprintf(&b, "Baseline FG success rate:        %5.1f%%  (~60%%)\n", h.BaselineFGSuccess*100)
	fmt.Fprintf(&b, "Dirigent FG success rate:        %5.1f%%  (>99%%)\n", h.DirigentFGSuccess*100)
	fmt.Fprintf(&b, "Dirigent std reduction:          %5.1f%%  (85%%)\n", h.DirigentStdReduction*100)
	fmt.Fprintf(&b, "Dirigent BG loss:                %5.1f%%  (9%%)\n", h.DirigentBGLoss*100)
	fmt.Fprintf(&b, "DirigentFreq std reduction:      %5.1f%%  (70%%)\n", h.DirigentFreqStdReduction*100)
	fmt.Fprintf(&b, "DirigentFreq BG loss:            %5.1f%%  (15%%)\n", h.DirigentFreqBGLoss*100)
	fmt.Fprintf(&b, "Static schemes BG loss:          %5.1f%%  (~40%%)\n", h.StaticBGLoss*100)
	fmt.Fprintf(&b, "Dirigent BG gain over static:    %5.1f%%  (~30%%)\n", h.DirigentVsStaticBGGain*100)
	return b.String()
}
