// Command dirigent-lint is the repo's static-analysis gate, a thin CLI
// over internal/analysis: a stdlib-only driver that type-checks every
// package in the module and runs nine type-aware analyzers —
//
//   - pkgdoc: internal packages carry a "// Package <name>" doc comment
//   - errorsnew: fmt.Errorf with no verbs should be errors.New
//   - errstyle: error strings must not end in punctuation or a newline
//   - walltime: no time.Now / global math/rand (or imports of wall-clock
//     tainted packages) in seed-deterministic packages
//   - maprange: map iteration in deterministic packages goes through
//     sorted keys
//   - nondetsched: no goroutines, selects or sync.Map in deterministic
//     packages outside the fan-out allowlist
//   - errcheck: no silently discarded error returns
//   - floateq: no ==/!= on floats outside approved comparators
//   - copylocks: sync types are not passed or assigned by value
//
// Deliberate exceptions are annotated in source with
// "//lint:ignore <check> <reason>".
//
// Usage:
//
//	dirigent-lint [-root dir] [-checks a,b,...] [-json|-md]
//	dirigent-lint -list
//
// Exit status: 0 when clean, 1 when findings exist, 2 on usage or load
// errors. The analyzers' own fixture test is internal/analysis's
// TestSelfTest.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dirigent/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dirigent-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root    = fs.String("root", ".", "module root to analyze")
		checks  = fs.String("checks", "", "comma-separated analyzer subset (default: all)")
		jsonOut = fs.Bool("json", false, "emit the report as JSON")
		mdOut   = fs.Bool("md", false, "emit the report as Markdown (CI step summaries)")
		list    = fs.Bool("list", false, "list the registered analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "dirigent-lint: unexpected arguments; use -root to point at the module")
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "dirigent-lint:", err)
		return 2
	}
	res, err := analysis.Run(analysis.Options{Root: *root, Checks: selected})
	if err != nil {
		fmt.Fprintln(stderr, "dirigent-lint:", err)
		return 2
	}

	switch {
	case *jsonOut:
		s, err := analysis.RenderJSON(res)
		if err != nil {
			fmt.Fprintln(stderr, "dirigent-lint:", err)
			return 2
		}
		fmt.Fprint(stdout, s)
	case *mdOut:
		fmt.Fprint(stdout, analysis.RenderMarkdown(res))
	default:
		fmt.Fprint(stdout, analysis.RenderText(res))
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(stderr, "dirigent-lint: %d finding(s)\n", len(res.Findings))
		return 1
	}
	return 0
}
