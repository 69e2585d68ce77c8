// Command dirigent-sim runs one workload mix under all five evaluated
// configurations and reports each one's FG success, relative BG
// throughput and relative standard deviation. The configuration named by
// -config is marked with "*", and -v adds its per-execution times.
//
// Usage:
//
//	dirigent-sim -fg ferret -bg rs,rs,rs,rs,rs -config Dirigent -executions 60
//	dirigent-sim -fg streamcluster,streamcluster -bg lbm+namd,lbm+namd,lbm+namd,lbm+namd -config DirigentFreq
//	dirigent-sim -fg ferret -bg rs,rs,rs,rs,rs -policies all
//
// -policies switches the comparison axis from the five system
// configurations to the registered QoS policies (dirigent, rtgang,
// cordlike), each run under the full runtime.
//
// Deadlines follow the paper's rule: µ+0.3σ of the execution times of a
// Baseline pass that runs first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dirigent-sim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	fg := flag.String("fg", "ferret", "comma-separated FG benchmarks")
	bg := flag.String("bg", "rs,rs,rs,rs,rs", "comma-separated BG specs (a single name or a+b rotate pair)")
	cfgName := flag.String("config", "Dirigent", "configuration: Baseline, StaticFreq, StaticBoth, DirigentFreq, Dirigent")
	pols := flag.String("policies", "", "compare QoS policies instead of configurations: comma-separated registry names, or \"all\"")
	executions := flag.Int("executions", 60, "FG executions per run")
	trace := flag.String("trace", "", "write a JSONL telemetry trace of every run to this file")
	traceQuanta := flag.Bool("trace-quanta", false, "include per-quantum machine events in the trace (large)")
	verbose := flag.Bool("v", false, "print every execution time")
	flag.Parse()

	mix := experiment.Mix{
		Name: strings.ReplaceAll(*fg+" "+*bg, ",", " "),
		FG:   splitList(*fg),
		BG:   splitList(*bg),
	}
	if err := mix.Validate(); err != nil {
		return err
	}
	want, err := config.ByName(config.Name(*cfgName))
	if err != nil {
		return err
	}

	r := experiment.NewRunner()
	r.Executions = *executions
	if *trace != "" {
		sink, closeTrace, openErr := telemetry.CreateJSONL(*trace)
		if openErr != nil {
			return openErr
		}
		if *traceQuanta {
			sink.Include(telemetry.KindQuantumStep)
		}
		r.Recorder = sink
		// A silently truncated trace is worse than none: a write error
		// fails the run.
		defer func() {
			if cerr := closeTrace(); cerr != nil {
				err = errors.Join(err, cerr)
				return
			}
			fmt.Fprintf(os.Stderr, "dirigent-sim: wrote %d events to %s\n", sink.Events(), *trace)
		}()
	}
	if *pols != "" {
		names := splitList(*pols)
		if len(names) == 1 && names[0] == "all" {
			names = nil // PolicySweep defaults to every registered policy
		}
		res, err := r.PolicySweep([]experiment.Mix{mix}, names)
		if err != nil {
			return err
		}
		pmr := res.Mixes[0]
		fmt.Printf("mix %s, deadline(s): %v\n\n", mix.Name, pmr.Deadlines)
		for _, p := range res.Policies {
			run := pmr.ByPolicy[p]
			fmt.Printf("  %-13s FG success %.3f  rel BG throughput %.3f",
				p, run.MeanSuccessRate(), pmr.RelBGThroughput(p))
			if run.FGWays > 0 {
				fmt.Printf("  FG ways %d", run.FGWays)
			}
			fmt.Println()
			for _, s := range run.Streams {
				fmt.Printf("    %-14s %s  success %.3f\n", s.Bench, s.Summary, s.SuccessRate)
			}
		}
		return nil
	}

	res, err := r.RunMix(mix)
	if err != nil {
		return err
	}

	fmt.Printf("mix %s, deadline(s): %v\n\n", mix.Name, res.Deadlines)
	for _, c := range config.Names() {
		run := res.ByConfig[c]
		marker := " "
		if c == want.Name {
			marker = "*"
		}
		fmt.Printf("%s %-13s FG success %.3f  rel BG throughput %.3f  rel std %.3f",
			marker, c, run.MeanSuccessRate(), res.RelBGThroughput(c), res.RelStd(c))
		if run.FGWays > 0 {
			fmt.Printf("  FG ways %d", run.FGWays)
		}
		if run.StaticBGLevel >= 0 {
			fmt.Printf("  BG level %d", run.StaticBGLevel)
		}
		fmt.Println()
		for _, s := range run.Streams {
			fmt.Printf("    %-14s %s  success %.3f\n", s.Bench, s.Summary, s.SuccessRate)
		}
	}

	if *verbose {
		run := res.ByConfig[want.Name]
		fmt.Printf("\nper-execution times under %s:\n", want.Name)
		for i, s := range run.Streams {
			fmt.Printf("  stream %d (%s):", i, s.Bench)
			for _, d := range s.Durations {
				fmt.Printf(" %.3f", d)
			}
			fmt.Println()
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
