// Command dirigent-ci runs the repository's end-to-end gates that are not
// Go tests: the declarative scenario suite under scenarios/, and a
// selftest proving that the scenario, lint and load gates can fail. It
// times nothing: wall-clock measurement is perfbench's job. The QoS probe
// suite (internal/benchreg) is pinned by a golden and gated by go test.
//
// Usage:
//
//	dirigent-ci -scenarios           # run the declarative scenario suite (scenarios/)
//	dirigent-ci -scenarios -json     # the same, as byte-deterministic JSON
//	dirigent-ci -selftest            # prove the scenario, lint and load gates can fail
//
// Exit status: 0 when the gate passes, 1 on failure or error, 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dirigent/internal/analysis"
	"dirigent/internal/load"
	"dirigent/internal/scenario"
)

func main() {
	var (
		selftest    = flag.Bool("selftest", false, "validate the scenario, lint and load gates end to end (injected violations must fail)")
		scenarios   = flag.Bool("scenarios", false, "run the declarative scenario suite and gate on its goals")
		scenarioDir = flag.String("scenario-dir", "scenarios", "directory holding *.json scenario specs for -scenarios")

		jsonOut = flag.Bool("json", false, "emit the report as JSON")
		mdOut   = flag.Bool("markdown", false, "emit the report as a Markdown table")
	)
	flag.Parse()

	if *selftest == *scenarios {
		fmt.Fprintln(os.Stderr, "dirigent-ci: exactly one of -selftest, -scenarios is required")
		flag.Usage()
		os.Exit(2)
	}

	if *selftest {
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
		return
	}

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
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dirigent-ci: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dirigent-ci:", err)
	os.Exit(1)
}
