// Command dirigent-bench regenerates the paper's tables and figures. Each
// -figN flag reproduces the corresponding figure of the evaluation section;
// -all runs the full set (the output recorded in EXPERIMENTS.md).
//
// Usage:
//
//	dirigent-bench -all
//	dirigent-bench -fig9a -fig11 -executions 60
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"dirigent/internal/experiment"
	"dirigent/internal/telemetry"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every table and figure")
		table1   = flag.Bool("table1", false, "Table 1: benchmark catalog")
		fig4     = flag.Bool("fig4", false, "Fig. 4: FG workload overview")
		fig5     = flag.Bool("fig5", false, "Fig. 5: BG workload overview")
		fig6     = flag.Bool("fig6", false, "Fig. 6: prediction trace (raytrace+rs)")
		fig7     = flag.Bool("fig7", false, "Fig. 7: prediction accuracy, all 35 mixes")
		fig8     = flag.Bool("fig8", false, "Fig. 8: partition sweep (streamcluster+pca)")
		fig9a    = flag.Bool("fig9a", false, "Fig. 9a: single-BG mixes")
		fig9b    = flag.Bool("fig9b", false, "Fig. 9b: rotate-BG mixes")
		fig9c    = flag.Bool("fig9c", false, "Fig. 9c: multi-FG mixes")
		fig11    = flag.Bool("fig11", false, "Fig. 11: execution-time PDFs (ferret+rs)")
		fig12    = flag.Bool("fig12", false, "Fig. 12: BG frequency distribution (ferret+rs)")
		fig15    = flag.Bool("fig15", false, "Fig. 15: FG/BG tradeoff sweep (raytrace+bwaves)")
		headline = flag.Bool("headline", false, "headline numbers over all single-FG mixes")
		resil    = flag.Bool("resilience", false, "resilience sweep: QoS under injected faults (ferret+rs); not part of -all")
		policies = flag.Bool("policies", false, "policy sweep: QoS vs BG throughput per QoS policy (dirigent, rtgang, cordlike); not part of -all")

		executions = flag.Int("executions", 60, "FG executions per run")
		predExecs  = flag.Int("pred-executions", 50, "executions per prediction probe")
		trace      = flag.String("trace", "", "write a JSONL telemetry trace of every run to this file")
	)
	flag.Parse()
	if *all {
		*table1, *fig4, *fig5, *fig6, *fig7, *fig8 = true, true, true, true, true, true
		*fig9a, *fig9b, *fig9c, *fig11, *fig12, *fig15, *headline = true, true, true, true, true, true, true
	}
	if !(*table1 || *fig4 || *fig5 || *fig6 || *fig7 || *fig8 || *fig9a || *fig9b || *fig9c ||
		*fig11 || *fig12 || *fig15 || *headline || *resil || *policies) {
		flag.Usage()
		os.Exit(2)
	}

	r := experiment.NewRunner()
	r.Executions = *executions
	if *trace != "" {
		f, err := os.Create(*trace)
		check(err)
		bw := bufio.NewWriterSize(f, 1<<20)
		sink := telemetry.NewJSONL(bw)
		r.Recorder = sink
		closeTrace = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if err := sink.Err(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "dirigent-bench: wrote %d events to %s\n", sink.Events(), *trace)
			return nil
		}
	}
	//lint:ignore walltime harness progress reporting; the wall clock never feeds results
	start := time.Now()

	// Mix results are shared between Fig. 9a/10/11/12/headline; compute
	// lazily and cache.
	var singleBG, rotateBG, multiFG []*experiment.MixResult
	needSingle := func() []*experiment.MixResult {
		if singleBG == nil {
			singleBG = mustMixes(r, experiment.SingleBGMixes())
		}
		return singleBG
	}
	needRotate := func() []*experiment.MixResult {
		if rotateBG == nil {
			rotateBG = mustMixes(r, experiment.RotateBGMixes())
		}
		return rotateBG
	}
	needMulti := func() []*experiment.MixResult {
		if multiFG == nil {
			multiFG = mustMixes(r, experiment.MultiFGMixes())
		}
		return multiFG
	}

	if *table1 {
		fmt.Println(experiment.Table1())
	}
	if *fig4 {
		rows, err := r.FGOverview()
		check(err)
		fmt.Println(experiment.RenderFGOverview(rows))
	}
	if *fig5 {
		rows, err := r.BGOverview()
		check(err)
		fmt.Println(experiment.RenderBGOverview(rows))
	}
	if *fig6 {
		mix := experiment.Mix{Name: "raytrace rs", FG: []string{"raytrace"}, BG: five("rs")}
		res, err := r.PredictionProbe(mix, *predExecs, 3)
		check(err)
		fmt.Println(experiment.RenderPredictionTrace(res))
	}
	if *fig7 {
		results, err := r.PredictionAccuracy(*predExecs/2, 3)
		check(err)
		fmt.Println(experiment.RenderPredictionAccuracy(results))
	}
	if *fig8 {
		mix := experiment.Mix{Name: "streamcluster pca", FG: []string{"streamcluster"}, BG: five("pca")}
		res, err := r.PartitionSweep(mix, 2, 18)
		check(err)
		fmt.Println(experiment.RenderPartitionSweep(res))
	}
	if *fig9a {
		res := needSingle()
		fmt.Println(experiment.RenderComparison("Fig. 9a: Single BG Workload Mixes", res))
		rows, err := experiment.Summarize(res)
		check(err)
		fmt.Println(experiment.RenderSummary("(partial Fig. 10 over single-BG mixes)", rows))
	}
	if *fig9b {
		res := needRotate()
		fmt.Println(experiment.RenderComparison("Fig. 9b: Rotate BG Workload Mixes", res))
	}
	if *fig9a && *fig9b {
		combined := append(append([]*experiment.MixResult{}, needSingle()...), needRotate()...)
		rows, err := experiment.Summarize(combined)
		check(err)
		fmt.Println(experiment.RenderSummary("Fig. 10: Summary of All Single FG Workload Mixes", rows))
	}
	if *fig9c {
		res := needMulti()
		fmt.Println(experiment.RenderComparison("Fig. 9c: Multiple FGs Workload Mixes", res))
		rows, err := experiment.Summarize(res)
		check(err)
		fmt.Println(experiment.RenderSummary("Fig. 13: Summary of All Multiple FG Workload Mixes", rows))
		fmt.Println(experiment.RenderNormalizedStd(res))
	}
	if *fig11 || *fig12 {
		// The paper's detailed mix: ferret FG with five RS BG tasks.
		var ferretRS *experiment.MixResult
		for _, mr := range needSingle() {
			if mr.Mix.Name == "ferret rs" {
				ferretRS = mr
			}
		}
		if *fig11 {
			curves, err := experiment.PDFCurves(ferretRS, 14)
			check(err)
			fmt.Println(experiment.RenderPDFCurves(ferretRS.Mix, curves))
		}
		if *fig12 {
			rows, err := experiment.FreqDistribution(ferretRS)
			check(err)
			fmt.Println(experiment.RenderFreqDistribution(ferretRS.Mix, rows))
		}
	}
	if *fig15 {
		mix := experiment.Mix{Name: "raytrace bwaves", FG: []string{"raytrace"}, BG: five("bwaves")}
		factors := []float64{1.00, 1.03, 1.06, 1.09, 1.12, 1.15, 1.18}
		pts, standalone, err := r.TradeoffSweep(mix, factors)
		check(err)
		fmt.Println(experiment.RenderTradeoff(mix, standalone, pts))
	}
	if *headline {
		combined := append(append([]*experiment.MixResult{}, needSingle()...), needRotate()...)
		h, err := experiment.ComputeHeadline(combined)
		check(err)
		fmt.Println(h.Render())
	}
	if *resil {
		mix := experiment.Mix{Name: "ferret rs", FG: []string{"ferret"}, BG: five("rs")}
		res, err := r.ResilienceSweep(mix, experiment.ResilienceOptions{})
		check(err)
		fmt.Println(experiment.RenderResilience(res))
	}
	if *policies {
		mixes := []experiment.Mix{
			{Name: "ferret rs", FG: []string{"ferret"}, BG: five("rs")},
			{Name: "bodytrack pca", FG: []string{"bodytrack"}, BG: five("pca")},
		}
		res, err := r.PolicySweep(mixes, nil)
		check(err)
		fmt.Println(experiment.RenderPolicySweep("Policy sweep: QoS policies under the full runtime", res))
	}

	check(flushTrace())
	fmt.Fprintf(os.Stderr, "dirigent-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
}

func five(name string) []string {
	return []string{name, name, name, name, name}
}

func mustMixes(r *experiment.Runner, mixes []experiment.Mix) []*experiment.MixResult {
	res, err := r.RunMixes(mixes)
	check(err)
	return res
}

// closeTrace flushes and closes the -trace writer; nil when tracing is off.
// It is package-level so the error path can drain the events recorded so
// far — a partial trace of a failed figure run is exactly what one wants
// for debugging it.
var closeTrace func() error

// flushTrace runs closeTrace at most once.
func flushTrace() error {
	if closeTrace == nil {
		return nil
	}
	ct := closeTrace
	closeTrace = nil
	return ct()
}

func check(err error) {
	if err != nil {
		if terr := flushTrace(); terr != nil {
			fmt.Fprintln(os.Stderr, "dirigent-bench: trace:", terr)
		}
		fmt.Fprintln(os.Stderr, "dirigent-bench:", err)
		os.Exit(1)
	}
}
