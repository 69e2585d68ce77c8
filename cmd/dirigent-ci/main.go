// Command dirigent-ci is the perf/QoS regression gate. It runs the
// internal/benchreg probe suite — wall-clock micro-benchmarks of the
// simulator's hot path and telemetry sinks, plus seed-deterministic
// predictor-accuracy and controller-QoS probes — and either records the
// results as a versioned baseline or checks them against the committed one.
//
// Usage:
//
//	dirigent-ci -record              # write BENCH_<n+1>.json
//	dirigent-ci -check               # gate against the latest BENCH_<n>.json
//	dirigent-ci -check -perf warn    # cloud CI: perf drifts warn, QoS still fails
//	dirigent-ci -selftest            # prove the gate catches an injected slowdown
//	dirigent-ci -scenarios           # run the declarative scenario suite (scenarios/)
//
// Exit status: 0 when the gate passes (warnings allowed), 1 on failure or
// error, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dirigent/internal/analysis"
	"dirigent/internal/benchreg"
	"dirigent/internal/load"
	"dirigent/internal/scenario"
)

func main() {
	var (
		record    = flag.Bool("record", false, "run the suite and write the next BENCH_<n>.json baseline")
		check     = flag.Bool("check", false, "run the suite and gate it against the latest baseline")
		selftest  = flag.Bool("selftest", false, "validate the gate end-to-end (injected slowdown must fail)")
		scenarios = flag.Bool("scenarios", false, "run the declarative scenario suite and gate on its goals")

		dir         = flag.String("dir", ".", "directory holding BENCH_<n>.json baselines")
		baseline    = flag.String("baseline", "", "explicit baseline file for -check (default: latest in -dir)")
		out         = flag.String("out", "", "explicit output file for -record (default: next BENCH_<n>.json in -dir)")
		scenarioDir = flag.String("scenario-dir", "scenarios", "directory holding *.json scenario specs for -scenarios")

		perfMode = flag.String("perf", "fail", "perf-metric gating: fail, warn (cloud CI), or off")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		mdOut    = flag.Bool("markdown", false, "emit the report as a Markdown table")
		quick    = flag.Bool("quick", false, "use the reduced probe sizes (smoke runs; not for recorded baselines)")

		samples    = flag.Int("samples", 0, "override perf sample count (min-of-N)")
		executions = flag.Int("executions", 0, "override QoS probe execution count")
	)
	flag.Parse()

	modes := 0
	for _, m := range []bool{*record, *check, *selftest, *scenarios} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "dirigent-ci: exactly one of -record, -check, -selftest, -scenarios is required")
		flag.Usage()
		os.Exit(2)
	}
	mode, err := benchreg.ParsePerfMode(*perfMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dirigent-ci:", err)
		os.Exit(2)
	}

	opts := benchreg.DefaultOptions()
	if *quick {
		opts = benchreg.QuickOptions()
	}
	if *samples > 0 {
		opts.PerfSamples = *samples
	}
	if *executions > 0 {
		opts.Executions = *executions
	}

	switch {
	case *selftest:
		if err := benchreg.SelfTest(logf); err != nil {
			fatal(err)
		}
		fmt.Println("dirigent-ci: selftest ok — the gate catches injected machine.Step slowdowns")
		logf("running scenario-gate selftest")
		if err := scenario.SelfTest(); err != nil {
			fatal(err)
		}
		fmt.Println("dirigent-ci: selftest ok — the scenario gate reports injected goal violations")
		logf("running static-analysis selftest")
		if err := analysis.SelfTest(filepath.Join("internal", "analysis", "testdata")); err != nil {
			fatal(err)
		}
		fmt.Println("dirigent-ci: selftest ok — every lint analyzer catches its seeded fixture violation")
		logf("running load-generator selftest")
		if err := load.SelfTest(logf); err != nil {
			fatal(err)
		}
		fmt.Println("dirigent-ci: selftest ok — the load gates catch nondeterministic traces and dropped events")

	case *scenarios:
		specs, err := scenario.LoadDir(*scenarioDir)
		if err != nil {
			fatal(err)
		}
		logf("running %d scenarios from %s", len(specs), *scenarioDir)
		start := time.Now()
		sr, err := scenario.RunSuite(specs)
		if err != nil {
			fatal(err)
		}
		logf("suite done in %v", time.Since(start).Round(time.Millisecond))
		switch {
		case *jsonOut:
			s, err := scenario.RenderJSON(sr)
			if err != nil {
				fatal(err)
			}
			fmt.Print(s)
		case *mdOut:
			fmt.Print(scenario.RenderMarkdown(sr))
		default:
			fmt.Print(scenario.RenderText(sr))
		}
		if !sr.Pass {
			fmt.Fprintf(os.Stderr, "dirigent-ci: FAIL — scenario goal violation(s): %v\n", sr.Failed())
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "dirigent-ci: scenario suite passed")

	case *record:
		path := *out
		if path == "" {
			path, err = benchreg.NextPath(*dir)
			if err != nil {
				fatal(err)
			}
		}
		logf("running probe suite (%d perf samples, %d QoS executions)", opts.PerfSamples, opts.Executions)
		start := time.Now()
		b, err := benchreg.Run(opts)
		if err != nil {
			fatal(err)
		}
		b.RecordedAt = time.Now().UTC().Format(time.RFC3339)
		if err := b.Save(path); err != nil {
			fatal(err)
		}
		logf("suite done in %v", time.Since(start).Round(time.Millisecond))
		fmt.Printf("dirigent-ci: recorded %d metrics to %s\n", len(b.Metrics), path)

	case *check:
		path := *baseline
		if path == "" {
			path, err = benchreg.LatestPath(*dir)
			if err != nil {
				fatal(err)
			}
		}
		base, err := benchreg.Load(path)
		if err != nil {
			fatal(err)
		}
		logf("running probe suite (%d perf samples, %d QoS executions)", opts.PerfSamples, opts.Executions)
		start := time.Now()
		cur, err := benchreg.Run(opts)
		if err != nil {
			fatal(err)
		}
		logf("suite done in %v", time.Since(start).Round(time.Millisecond))
		rep := benchreg.Compare(base, cur, mode)
		rep.BaselinePath = path
		switch {
		case *jsonOut:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fatal(err)
			}
		case *mdOut:
			fmt.Print(rep.Markdown())
		default:
			fmt.Print(rep.Text())
		}
		if !rep.OK() {
			fmt.Fprintf(os.Stderr, "dirigent-ci: FAIL — %d regression(s); if the change is intentional, refresh the baseline with -record\n", rep.Fails)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "dirigent-ci: gate passed")
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dirigent-ci: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dirigent-ci:", err)
	os.Exit(1)
}
