// Command dirigent-bench regenerates the paper's tables and figures. Each
// -figN flag reproduces the corresponding figure of the evaluation section;
// -all runs the full set plus the predictor ablation and the resilience
// and policy sweeps. The -all output is the report EXPERIMENTS.md quotes,
// pinned by testdata/report.json.
//
// Usage:
//
//	dirigent-bench -all
//	dirigent-bench -fig9a -fig11 -executions 60
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"dirigent/internal/experiment"
	"dirigent/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "dirigent-bench:", err)
		os.Exit(1)
	}
}

// run prints the figures args select to stdout. It returns flag.ErrHelp,
// after the usage, when args do not parse or select nothing.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("dirigent-bench", flag.ContinueOnError)
	var (
		all      = fs.Bool("all", false, "run every table and figure, the predictor ablation, and the resilience and policy sweeps")
		table1   = fs.Bool("table1", false, "Table 1: benchmark catalog")
		fig4     = fs.Bool("fig4", false, "Fig. 4: FG workload overview")
		fig5     = fs.Bool("fig5", false, "Fig. 5: BG workload overview")
		fig6     = fs.Bool("fig6", false, "Fig. 6: prediction trace (raytrace+rs)")
		fig7     = fs.Bool("fig7", false, "Fig. 7: prediction accuracy, all 35 mixes, then the predictor ablation (ferret+bwaves)")
		fig8     = fs.Bool("fig8", false, "Fig. 8: partition sweep (streamcluster+pca)")
		fig9a    = fs.Bool("fig9a", false, "Fig. 9a: single-BG mixes")
		fig9b    = fs.Bool("fig9b", false, "Fig. 9b: rotate-BG mixes")
		fig9c    = fs.Bool("fig9c", false, "Fig. 9c: multi-FG mixes")
		fig11    = fs.Bool("fig11", false, "Fig. 11: execution-time PDFs (ferret+rs)")
		fig12    = fs.Bool("fig12", false, "Fig. 12: BG frequency distribution (ferret+rs)")
		fig15    = fs.Bool("fig15", false, "Fig. 15: FG/BG tradeoff sweep (raytrace+bwaves)")
		headline = fs.Bool("headline", false, "headline numbers over all single-FG mixes")
		resil    = fs.Bool("resilience", false, "resilience sweep: QoS under injected faults (ferret+rs)")
		policies = fs.Bool("policies", false, "policy sweep: QoS vs BG throughput per QoS policy (dirigent, rtgang, cordlike)")

		executions = fs.Int("executions", 45, "FG executions per run")
		predExecs  = fs.Int("pred-executions", 50, "executions per prediction probe")
		trace      = fs.String("trace", "", "write a JSONL telemetry trace of every run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	selected := false
	for _, on := range []*bool{table1, fig4, fig5, fig6, fig7, fig8, fig9a, fig9b, fig9c, fig11, fig12, fig15, headline, resil, policies} {
		*on = *on || *all
		selected = selected || *on
	}
	if !selected {
		fs.Usage()
		return flag.ErrHelp
	}

	r := experiment.NewRunner()
	r.Executions = *executions
	if *trace != "" {
		sink, closeTrace, openErr := telemetry.CreateJSONL(*trace)
		if openErr != nil {
			return openErr
		}
		r.Recorder = sink
		defer func() {
			if cerr := closeTrace(); cerr != nil {
				err = errors.Join(err, cerr)
				return
			}
			fmt.Fprintf(os.Stderr, "dirigent-bench: wrote %d events to %s\n", sink.Events(), *trace)
		}()
	}
	//lint:ignore walltime harness progress reporting; the wall clock never feeds results
	start := time.Now()

	// Mix results are shared between Fig. 9a/10/11/12/headline.
	var single, rotate, multi []*experiment.MixResult
	if *fig9a || *fig11 || *fig12 || *headline {
		if single, err = r.RunMixes(experiment.SingleBGMixes()); err != nil {
			return err
		}
	}
	if *fig9b || *headline {
		if rotate, err = r.RunMixes(experiment.RotateBGMixes()); err != nil {
			return err
		}
	}
	if *fig9c {
		if multi, err = r.RunMixes(experiment.MultiFGMixes()); err != nil {
			return err
		}
	}

	if *table1 {
		fmt.Fprintln(stdout, experiment.Table1())
	}
	if *fig4 {
		rows, err := r.FGOverview()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderFGOverview(rows))
	}
	if *fig5 {
		rows, err := r.BGOverview()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderBGOverview(rows))
	}
	if *fig6 {
		mix := experiment.Mix{Name: "raytrace rs", FG: []string{"raytrace"}, BG: five("rs")}
		res, err := r.PredictionProbe(mix, *predExecs, 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderPredictionTrace(res))
	}
	if *fig7 {
		results, err := r.PredictionAccuracy(*predExecs/2, 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderPredictionAccuracy(results))
		rows, err := r.PredictorAblation(*predExecs/2, 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderPredictorAblation(rows))
	}
	if *fig8 {
		mix := experiment.Mix{Name: "streamcluster pca", FG: []string{"streamcluster"}, BG: five("pca")}
		res, err := r.PartitionSweep(mix, 2, 18)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderPartitionSweep(res))
	}
	if *fig9a {
		fmt.Fprintln(stdout, experiment.RenderComparison("Fig. 9a: Single BG Workload Mixes", single))
		rows, err := experiment.Summarize(single)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderSummary("(partial Fig. 10 over single-BG mixes)", rows))
	}
	if *fig9b {
		fmt.Fprintln(stdout, experiment.RenderComparison("Fig. 9b: Rotate BG Workload Mixes", rotate))
	}
	if *fig9a && *fig9b {
		rows, err := experiment.Summarize(append(append([]*experiment.MixResult{}, single...), rotate...))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderSummary("Fig. 10: Summary of All Single FG Workload Mixes", rows))
	}
	if *fig9c {
		fmt.Fprintln(stdout, experiment.RenderComparison("Fig. 9c: Multiple FGs Workload Mixes", multi))
		rows, err := experiment.Summarize(multi)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderSummary("Fig. 13: Summary of All Multiple FG Workload Mixes", rows))
		fmt.Fprintln(stdout, experiment.RenderNormalizedStd(multi))
	}
	if *fig11 || *fig12 {
		// The paper's detailed mix: ferret FG with five RS BG tasks.
		ferretRS := single[slices.IndexFunc(single, func(mr *experiment.MixResult) bool { return mr.Mix.Name == "ferret rs" })]
		if *fig11 {
			curves, err := experiment.PDFCurves(ferretRS, 14)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiment.RenderPDFCurves(ferretRS.Mix, curves))
		}
		if *fig12 {
			rows, err := r.FreqDistribution(ferretRS)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiment.RenderFreqDistribution(ferretRS.Mix, rows))
		}
	}
	if *fig15 {
		mix := experiment.Mix{Name: "raytrace bwaves", FG: []string{"raytrace"}, BG: five("bwaves")}
		factors := []float64{1.00, 1.03, 1.06, 1.09, 1.12, 1.15, 1.18}
		pts, standalone, err := r.TradeoffSweep(mix, factors)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderTradeoff(mix, standalone, pts))
	}
	if *headline {
		h, err := experiment.ComputeHeadline(append(append([]*experiment.MixResult{}, single...), rotate...))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, h.Render())
	}
	if *resil {
		mix := experiment.Mix{Name: "ferret rs", FG: []string{"ferret"}, BG: five("rs")}
		res, err := r.ResilienceSweep(mix)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderResilience(res))
	}
	if *policies {
		set := []experiment.Mix{
			{Name: "ferret rs", FG: []string{"ferret"}, BG: five("rs")},
			{Name: "bodytrack pca", FG: []string{"bodytrack"}, BG: five("pca")},
		}
		res, err := r.PolicySweep(set, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiment.RenderPolicySweep("Policy sweep: QoS policies under the full runtime", res))
	}

	fmt.Fprintf(os.Stderr, "dirigent-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func five(name string) []string {
	return []string{name, name, name, name, name}
}
