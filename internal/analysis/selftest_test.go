package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// A want is one expectation comment in a fixture file:
//
//	return time.Now() // want walltime "time.Now"
//
// The analyzer named must report a finding on that line whose message
// contains the quoted substring. pkgdoc wants match the package-level
// finding of the file's package. Fixture lines without a want comment
// must stay quiet, so TestSelfTest proves each analyzer both fires on
// its seeded violation and holds its silence on the negative cases.
type want struct {
	file   string // fixture-root-relative
	line   int
	check  string
	substr string
}

var wantRE = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

// fixtureConfig scopes the determinism checks for the fixture module:
// det and fanout are determinism-critical, and fanout sits on the
// nondetsched allowlist (its goroutine must not be reported).
func fixtureConfig() *Config {
	return &Config{
		Deterministic: []string{"det", "fanout"},
		Allow: map[string][]string{
			"nondetsched": {"fanout"},
		},
	}
}

// TestSelfTest proves the analysis gate end to end: it runs the full
// registry over the fixture module and checks the findings against the
// fixtures' want comments, both directions — every seeded violation must
// be caught (so an analyzer that stops firing fails the test) and nothing
// else may be reported (so a noisy analyzer fails it too).
func TestSelfTest(t *testing.T) {
	res, err := Run(Options{Root: "testdata", Config: fixtureConfig()})
	if err != nil {
		t.Fatal(err)
	}
	wants, err := collectWants("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatal("no want comments found in fixtures")
	}
	if len(res.Findings) == 0 {
		t.Fatal("zero findings over seeded fixture violations; the gate cannot fail")
	}
	if res.Suppressed == 0 {
		t.Fatal("no suppressed findings; lint:ignore directives are not honored")
	}

	matchedWant := make([]bool, len(wants))
	var problems []string
	for _, f := range res.Findings {
		matched := false
		for i, w := range wants {
			if matchedWant[i] || w.check != f.Check || !strings.Contains(f.Message, w.substr) {
				continue
			}
			if f.Line == 0 { // package-level finding: match by package dir
				if filepath.ToSlash(filepath.Dir(w.file)) != f.Package {
					continue
				}
			} else if w.file != f.File || w.line != f.Line {
				continue
			}
			matchedWant[i] = true
			matched = true
			break
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding %s: [%s] %s", f.Pos(), f.Check, f.Message))
		}
	}
	for i, w := range wants {
		if !matchedWant[i] {
			problems = append(problems, fmt.Sprintf("%s:%d: analyzer %s did not report the seeded violation (want %q)", w.file, w.line, w.check, w.substr))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// collectWants scans the fixture tree for want comments.
func collectWants(root string) ([]want, error) {
	var out []want
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				out = append(out, want{
					file:   filepath.ToSlash(rel),
					line:   i + 1,
					check:  m[1],
					substr: m[2],
				})
			}
		}
		return nil
	})
	return out, err
}
