// Package dirigent_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation section (run with
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out and micro-benchmarks of the hot paths.
//
// Figure benches print their rendered tables once (on the first iteration)
// and report the figure's headline quantities via b.ReportMetric, so the
// bench output doubles as the experimental record (EXPERIMENTS.md).
package dirigent_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/config"
	"dirigent/internal/core"
	"dirigent/internal/experiment"
	"dirigent/internal/machine"
	"dirigent/internal/sched"
	"dirigent/internal/sim"
	"dirigent/internal/workload"
)

// benchRunner is shared across figure benches so offline profiles and mix
// results are computed once per `go test` process.
var (
	benchRunnerOnce sync.Once
	benchRunnerInst *experiment.Runner

	mixResultsMu   sync.Mutex
	mixResultsByID = map[string][]*experiment.MixResult{}
)

func benchRunner() *experiment.Runner {
	benchRunnerOnce.Do(func() {
		r := experiment.NewRunner()
		r.Executions = 45 // enough for stable statistics, small enough for CI
		benchRunnerInst = r
	})
	return benchRunnerInst
}

// mixResults caches full five-configuration sweeps keyed by set name.
func mixResults(b *testing.B, key string, mixes []experiment.Mix) []*experiment.MixResult {
	b.Helper()
	mixResultsMu.Lock()
	defer mixResultsMu.Unlock()
	if res, ok := mixResultsByID[key]; ok {
		return res
	}
	res, err := benchRunner().RunMixes(mixes)
	if err != nil {
		b.Fatal(err)
	}
	mixResultsByID[key] = res
	return res
}

func five(name string) []string { return []string{name, name, name, name, name} }

// ----------------------------------------------------------------- Table 1

func BenchmarkTable1Catalog(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiment.Table1()
	}
	b.StopTimer()
	fmt.Println(out)
}

// ------------------------------------------------------------------ Fig. 4

func BenchmarkFig4FGOverview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchRunner().FGOverview()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderFGOverview(rows))
			var worstSlowdown float64
			for _, r := range rows {
				if s := r.ContendSec / r.AloneSec; s > worstSlowdown {
					worstSlowdown = s
				}
			}
			b.ReportMetric(worstSlowdown, "worst-slowdown-x")
		}
	}
}

// ------------------------------------------------------------------ Fig. 5

func BenchmarkFig5BGOverview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchRunner().BGOverview()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderBGOverview(rows))
			b.ReportMetric(rows[len(rows)-1].TotalMPKFGI/rows[0].TotalMPKFGI, "intrusiveness-span-x")
		}
	}
}

// ------------------------------------------------------------------ Fig. 6

func BenchmarkFig6PredictionTrace(b *testing.B) {
	mix := experiment.Mix{Name: "raytrace rs", FG: []string{"raytrace"}, BG: five("rs")}
	for i := 0; i < b.N; i++ {
		res, err := benchRunner().PredictionProbe(mix, 50, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderPredictionTrace(res))
			b.ReportMetric(res.MeanError*100, "mean-error-%")
		}
	}
}

// ------------------------------------------------------------------ Fig. 7

func BenchmarkFig7PredictionAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := benchRunner().PredictionAccuracy(25, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderPredictionAccuracy(results))
			sum := 0.0
			for _, r := range results {
				sum += r.MeanError
			}
			b.ReportMetric(sum/float64(len(results))*100, "avg-error-%")
		}
	}
}

// ------------------------------------------------------------------ Fig. 8

func BenchmarkFig8PartitionSweep(b *testing.B) {
	mix := experiment.Mix{Name: "streamcluster pca", FG: []string{"streamcluster"}, BG: five("pca")}
	for i := 0; i < b.N; i++ {
		res, err := benchRunner().PartitionSweep(mix, 2, 18)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderPartitionSweep(res))
			b.ReportMetric(float64(res.Knee), "knee-ways")
			b.ReportMetric(float64(res.DirigentWays), "dirigent-ways")
			b.ReportMetric(float64(res.DirigentExecutions), "convergence-executions")
		}
	}
}

// --------------------------------------------------------- Fig. 9a/9b/9c

func benchComparison(b *testing.B, key, title string, mixes []experiment.Mix) []*experiment.MixResult {
	b.Helper()
	var results []*experiment.MixResult
	for i := 0; i < b.N; i++ {
		results = mixResults(b, key, mixes)
		if i == 0 {
			fmt.Println(experiment.RenderComparison(title, results))
			rows, err := experiment.Summarize(results)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range rows {
				if row.Config == config.Dirigent {
					b.ReportMetric(row.FGRatio, "dirigent-fg-ratio")
					b.ReportMetric(row.BGThroughput, "dirigent-bg-throughput")
				}
			}
		}
	}
	return results
}

func BenchmarkFig9aSingleBG(b *testing.B) {
	benchComparison(b, "single", "Fig. 9a: Single BG Workload Mixes", experiment.SingleBGMixes())
}

func BenchmarkFig9bRotateBG(b *testing.B) {
	benchComparison(b, "rotate", "Fig. 9b: Rotate BG Workload Mixes", experiment.RotateBGMixes())
}

func BenchmarkFig9cMultiFG(b *testing.B) {
	benchComparison(b, "multi", "Fig. 9c: Multiple FGs Workload Mixes", experiment.MultiFGMixes())
}

// ----------------------------------------------------------------- Fig. 10

func BenchmarkFig10SummarySingleFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		combined := append(append([]*experiment.MixResult{},
			mixResults(b, "single", experiment.SingleBGMixes())...),
			mixResults(b, "rotate", experiment.RotateBGMixes())...)
		rows, err := experiment.Summarize(combined)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderSummary("Fig. 10: Summary of All Single FG Workload Mixes", rows))
			for _, row := range rows {
				b.ReportMetric(row.FGRatio, string(row.Config)+"-fg")
			}
		}
	}
}

// ----------------------------------------------------------------- Fig. 11

func BenchmarkFig11PDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := mixResults(b, "single", experiment.SingleBGMixes())
		var ferretRS *experiment.MixResult
		for _, mr := range results {
			if mr.Mix.Name == "ferret rs" {
				ferretRS = mr
			}
		}
		curves, err := experiment.PDFCurves(ferretRS, 14)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderPDFCurves(ferretRS.Mix, curves))
		}
	}
}

// ----------------------------------------------------------------- Fig. 12

func BenchmarkFig12FreqDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := mixResults(b, "single", experiment.SingleBGMixes())
		var ferretRS *experiment.MixResult
		for _, mr := range results {
			if mr.Mix.Name == "ferret rs" {
				ferretRS = mr
			}
		}
		rows, err := experiment.FreqDistribution(ferretRS)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderFreqDistribution(ferretRS.Mix, rows))
		}
	}
}

// ----------------------------------------------------------------- Fig. 13

func BenchmarkFig13SummaryMultiFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Summarize(mixResults(b, "multi", experiment.MultiFGMixes()))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderSummary("Fig. 13: Summary of All Multiple FG Workload Mixes", rows))
		}
	}
}

// ----------------------------------------------------------------- Fig. 14

func BenchmarkFig14NormalizedStd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := mixResults(b, "multi", experiment.MultiFGMixes())
		if i == 0 {
			fmt.Println(experiment.RenderNormalizedStd(results))
		}
	}
}

// ----------------------------------------------------------------- Fig. 15

func BenchmarkFig15Tradeoff(b *testing.B) {
	mix := experiment.Mix{Name: "raytrace bwaves", FG: []string{"raytrace"}, BG: five("bwaves")}
	factors := []float64{1.00, 1.03, 1.06, 1.09, 1.12, 1.15, 1.18}
	for i := 0; i < b.N; i++ {
		pts, standalone, err := benchRunner().TradeoffSweep(mix, factors)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiment.RenderTradeoff(mix, standalone, pts))
			b.ReportMetric(pts[len(pts)-1].BGThroughput, "bg-at-loosest-target")
		}
	}
}

// ---------------------------------------------------------------- Headline

func BenchmarkHeadlineNumbers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		combined := append(append([]*experiment.MixResult{},
			mixResults(b, "single", experiment.SingleBGMixes())...),
			mixResults(b, "rotate", experiment.RotateBGMixes())...)
		h, err := experiment.ComputeHeadline(combined)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(h.Render())
			b.ReportMetric(h.DirigentFGSuccess*100, "dirigent-fg-success-%")
			b.ReportMetric(h.DirigentBGLoss*100, "dirigent-bg-loss-%")
			b.ReportMetric(h.DirigentStdReduction*100, "dirigent-std-reduction-%")
		}
	}
}

// --------------------------------------------------------------- Ablations

// BenchmarkAblationEMAWeight reproduces the paper's sensitivity claim
// (§4.2): the predictor is robust to EMA weights in 0.1–0.3.
func BenchmarkAblationEMAWeight(b *testing.B) {
	for _, w := range []float64{0.1, 0.2, 0.3} {
		b.Run(fmt.Sprintf("w=%.1f", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := predictorAccuracyWithOptions(b, w, core.DefaultSamplePeriod)
				if i == 0 {
					b.ReportMetric(err*100, "mean-error-%")
				}
			}
		})
	}
}

// BenchmarkAblationSamplingPeriod reproduces §4.2's sampling-period
// sensitivity: even ~40 segments per execution predict well.
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	for _, p := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := predictorAccuracyWithOptions(b, core.DefaultEMAWeight, p)
				if i == 0 {
					b.ReportMetric(err*100, "mean-error-%")
				}
			}
		})
	}
}

// predictorAccuracyWithOptions measures midpoint prediction error for
// ferret against 5 bwaves with custom predictor parameters.
func predictorAccuracyWithOptions(b *testing.B, weight float64, period time.Duration) float64 {
	b.Helper()
	prof, err := core.ProfileBenchmark(workload.MustByName("ferret"),
		core.ProfilerOptions{SamplePeriod: period})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.MustNew(machine.DefaultConfig())
	specs := make([]sched.BGSpec, 5)
	for i := range specs {
		specs[i] = sched.BGSpec{Bench: workload.MustByName("bwaves")}
	}
	colo, err := sched.New(m, []*workload.Benchmark{workload.MustByName("ferret")}, specs, sched.Options{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	pred, err := core.NewPredictor(prof, weight)
	if err != nil {
		b.Fatal(err)
	}
	pred.BeginExecution(0)
	fgTask := colo.FG()[0].Task
	instrAtStart := 0.0
	mid := pred.Segments() / 2

	type pt struct {
		pred, actual float64
		have         bool
	}
	var pts []pt
	var cur pt
	colo.OnComplete(func(stream int, e sched.Execution) {
		if err := pred.FinishExecution(e.End); err != nil {
			b.Fatal(err)
		}
		cur.actual = e.Duration.Seconds()
		pts = append(pts, cur)
		cur = pt{}
		pred.BeginExecution(e.End)
		instrAtStart = m.Counters().Task(fgTask).Instructions
	})
	tick := sim.MustTicker(period)
	for len(pts) < 25 && m.Now() < sim.Time(3*time.Minute) {
		colo.Step()
		if !tick.Fire(m.Now()) {
			continue
		}
		if err := pred.Observe(m.Now(), m.Counters().Task(fgTask).Instructions-instrAtStart); err != nil {
			b.Fatal(err)
		}
		if !cur.have && pred.SegmentIndex() >= mid {
			d, err := pred.PredictDuration(m.Now())
			if err != nil {
				b.Fatal(err)
			}
			cur.pred = d.Seconds()
			cur.have = true
		}
	}
	sum, n := 0.0, 0
	for i, p := range pts {
		if i < 3 || !p.have {
			continue
		}
		e := (p.pred - p.actual) / p.actual
		if e < 0 {
			e = -e
		}
		sum += e
		n++
	}
	if n == 0 {
		b.Fatal("no predictions")
	}
	return sum / float64(n)
}

// ---------------------------------------------------------- Microbenchmarks

// BenchmarkPredictorObserve measures the runtime's per-sample cost — the
// real system budgets <100 µs per invocation (§4.2); the simulated
// predictor must be far below that to keep sweeps fast.
func BenchmarkPredictorObserve(b *testing.B) {
	prof := &core.Profile{Benchmark: "synthetic", SamplePeriod: 5 * time.Millisecond}
	for i := 0; i < 200; i++ {
		prof.Segments = append(prof.Segments, core.Segment{Progress: 1e7, Duration: 5 * time.Millisecond})
	}
	pred := core.MustPredictor(prof, 0.2)
	pred.BeginExecution(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i%200) * sim.Time(5*time.Millisecond)
		if i%200 == 0 {
			pred.BeginExecution(now)
		}
		_ = pred.Observe(now, float64(i%200)*1e7)
		if _, err := pred.Predict(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLLCApply measures the cache model's per-quantum cost, with task
// handles resolved as the machine resolves them.
func BenchmarkLLCApply(b *testing.B) {
	llc := cache.MustNew(cache.DefaultConfig())
	traffic := make([]cache.Traffic, 6)
	for i := range traffic {
		if err := llc.Register(i, 0); err != nil {
			b.Fatal(err)
		}
		traffic[i] = cache.Traffic{Task: i, Accesses: 5000, MissRate: 0.4, WSS: 8 << 20, Ref: llc.Ref(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.ApplyFast(250*time.Microsecond, traffic)
	}
}

// BenchmarkProfiler measures the offline profiling cost for the fastest FG
// benchmark.
func BenchmarkProfiler(b *testing.B) {
	bench := workload.MustByName("fluidanimate")
	for i := 0; i < b.N; i++ {
		if _, err := core.ProfileBenchmark(bench, core.ProfilerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
