package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dirigent/internal/golden"
)

// reportPath pins the stdout of `dirigent-bench -all`, one JSON string per
// line: report index i is line i+2 of the file, below its opening bracket.
const reportPath = "testdata/report.json"

// TestReportGolden pins the whole report: every table and figure, the
// predictor ablation, and the resilience and policy sweeps, at the default
// 45 executions per run.
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-all"}, &buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, reportPath, strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n"))
}

// TestDocsQuoteReport checks the docs' report blocks against the pinned
// report, without running it.
func TestDocsQuoteReport(t *testing.T) {
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var report []string
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range checkQuotes(doc, string(text), report) {
			t.Error(msg)
		}
	}
}

// checkQuotes checks each fenced block of doc whose info string is
// "report": its first line must occur exactly once in the report, and from
// there the block must match the report line for line. It returns one
// message per problem, each naming the doc's line, and one when doc quotes
// no report block at all.
func checkQuotes(name, doc string, report []string) []string {
	var msgs []string
	lines := strings.Split(doc, "\n")
	blocks := 0
	for i := 0; i < len(lines); i++ {
		if lines[i] != "```report" {
			continue
		}
		blocks++
		end := i + 1
		for end < len(lines) && !strings.HasPrefix(lines[end], "```") {
			end++
		}
		if end == len(lines) {
			return append(msgs, fmt.Sprintf("%s:%d: report block has no closing fence", name, i+1))
		}
		at, n := 0, 0
		for j, l := range report {
			if l == lines[i+1] {
				at, n = j, n+1
			}
		}
		switch {
		case n == 0:
			msgs = append(msgs, fmt.Sprintf("%s:%d: %q is not a report line", name, i+2, lines[i+1]))
		case n > 1:
			msgs = append(msgs, fmt.Sprintf("%s:%d: %q occurs %d times in the report", name, i+2, lines[i+1], n))
		default:
			for k, l := range lines[i+1 : end] {
				want := "(end of report)"
				if at+k < len(report) {
					want = report[at+k]
				}
				if l != want {
					msgs = append(msgs, fmt.Sprintf("%s:%d: %q, report golden line %d: %q", name, i+2+k, l, at+k+2, want))
				}
			}
		}
		i = end
	}
	if blocks == 0 {
		msgs = append(msgs, name+" quotes no report block")
	}
	return msgs
}

// TestCheckQuotes proves the doc check can fail: each bad quote is named.
func TestCheckQuotes(t *testing.T) {
	report := []string{"Fig. 4: title", "a 1.00", "b 2.00", "", "dup", "dup"}
	for _, tc := range []struct{ name, doc, want string }{
		{"match", "x\n```report\nFig. 4: title\na 1.00\n```\n", ""},
		{"edited cell", "x\n```report\nFig. 4: title\na 1.01\n```\n", `doc.md:4: "a 1.01", report golden line 3: "a 1.00"`},
		{"first line missing", "```report\nFig. 5: title\n```\n", `doc.md:2: "Fig. 5: title" is not a report line`},
		{"first line twice", "```report\ndup\n```\n", `doc.md:2: "dup" occurs 2 times in the report`},
		{"unterminated fence", "```report\nFig. 4: title\n", "doc.md:1: report block has no closing fence"},
		{"no report block", "```\nFig. 4: title\n```\n", "doc.md quotes no report block"},
	} {
		got := strings.Join(checkQuotes("doc.md", tc.doc, report), "\n")
		if (got == "") != (tc.want == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
