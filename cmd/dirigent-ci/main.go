// Command dirigent-ci runs the declarative scenario suite under
// scenarios/ and gates on each scenario's goals. It times nothing:
// wall-clock measurement is perfbench's job. The scenario harness's
// per-class goldens are checked by go test, which also proves the scenario
// gate can fail (scenario.TestSelfTest).
//
// Usage:
//
//	dirigent-ci                      # run the declarative scenario suite (scenarios/)
//	dirigent-ci -json                # the same, as byte-deterministic JSON
//	dirigent-ci -scenario-dir dir    # run the specs in another directory
//
// Exit status: 0 when every goal is met, 1 on a violated goal or error, 2
// on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dirigent/internal/scenario"
)

func main() {
	var (
		scenarioDir = flag.String("scenario-dir", "scenarios", "directory holding the *.json scenario specs")

		jsonOut = flag.Bool("json", false, "emit the report as JSON")
		mdOut   = flag.Bool("markdown", false, "emit the report as a Markdown table")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "dirigent-ci: unexpected arguments:", flag.Args())
		flag.Usage()
		os.Exit(2)
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
