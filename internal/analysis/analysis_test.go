package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFixtureSuppression pins the suppression accounting: the fixture
// has exactly two honored directives (leading and trailing form), and
// the malformed/mismatched ones must not suppress.
func TestFixtureSuppression(t *testing.T) {
	res, err := Run(Options{Root: "testdata", Config: fixtureConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (leading + trailing directive)", res.Suppressed)
	}
	malformed := 0
	for _, f := range res.Findings {
		if f.File == "det/suppressed.go" && f.Check == "walltime" {
			malformed++
		}
	}
	if malformed != 2 {
		t.Errorf("surviving findings in det/suppressed.go = %d, want 2 (malformed + mismatched directives)", malformed)
	}
}

// TestChecksFilter proves -checks style selection: running only pkgdoc
// over the fixture yields exactly the nodoc finding.
func TestChecksFilter(t *testing.T) {
	checks, err := ByName("pkgdoc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Root: "testdata", Checks: checks, Config: fixtureConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 || res.Findings[0].Check != "pkgdoc" || res.Findings[0].Package != "internal/nodoc" {
		t.Errorf("pkgdoc-only run = %+v, want exactly the internal/nodoc finding", res.Findings)
	}
}

// TestDeterministicFindings runs the engine twice and requires
// byte-identical results: the gate itself must be seed-deterministic.
func TestDeterministicFindings(t *testing.T) {
	a, err := Run(Options{Root: "testdata", Config: fixtureConfig()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Root: "testdata", Config: fixtureConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs differ:\n%+v\n%+v", a, b)
	}
}

// TestByName covers subset selection and the unknown-check error.
func TestByName(t *testing.T) {
	got, err := ByName("walltime, errcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "walltime" || got[1].Name != "errcheck" {
		t.Errorf("ByName = %v", got)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Error("unknown check accepted")
	}
	if _, err := ByName(" , "); err == nil {
		t.Error("empty list accepted")
	}
	if all, err := ByName(""); err != nil || len(all) != 9 {
		t.Errorf("default registry = %d analyzers, err %v; want 9", len(all), err)
	}
}

// TestBrokenFileFailsCleanly pins the old crash class: the parse-only
// linter panicked on a zero-argument fmt.Errorf (it indexed Args[0]
// unconditionally). The type-checking engine instead reports a load
// error — exit 2 territory, never a panic.
func TestBrokenFileFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module broken\n\ngo 1.22\n")
	write("broken.go", "package broken\n\nimport \"fmt\"\n\nfunc f() error { return fmt.Errorf() }\n")
	_, err := Run(Options{Root: dir})
	if err == nil {
		t.Fatal("type-broken module loaded without error")
	}
	if !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("error %q does not name the type-checking stage", err)
	}
}

// TestReporters sanity-checks the three output formats over the fixture
// result.
func TestReporters(t *testing.T) {
	res, err := Run(Options{Root: "testdata", Config: fixtureConfig()})
	if err != nil {
		t.Fatal(err)
	}

	text := RenderText(res)
	if !strings.Contains(text, "[walltime]") || !strings.Contains(text, "det/det.go:") {
		t.Errorf("text report missing expected lines:\n%s", text)
	}

	js, err := RenderJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal([]byte(js), &decoded); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if len(decoded.Findings) != len(res.Findings) || decoded.Suppressed != res.Suppressed {
		t.Errorf("JSON round-trip lost findings: %d/%d", len(decoded.Findings), len(res.Findings))
	}

	md := RenderMarkdown(res)
	if !strings.Contains(md, "| Position | Check | Message |") {
		t.Errorf("markdown report missing findings table:\n%s", md)
	}

	clean := &Result{Packages: 3, Checks: Names()}
	if md := RenderMarkdown(clean); !strings.Contains(md, "✅ clean") {
		t.Errorf("clean markdown report missing status:\n%s", md)
	}
}

// TestMatchDir pins the config pattern semantics.
func TestMatchDir(t *testing.T) {
	cases := []struct {
		dir, pattern string
		want         bool
	}{
		{".", ".", true},
		{"internal/machine", ".", false},
		{"internal", "internal", true},
		{"internal/machine", "internal", true},
		{"internalx", "internal", false},
		{"cmd/dirigent-sim", "cmd/dirigent-sim", true},
		{"cmd/dirigent-simx", "cmd/dirigent-sim", false},
	}
	for _, c := range cases {
		if got := matchDir(c.dir, c.pattern); got != c.want {
			t.Errorf("matchDir(%q, %q) = %v, want %v", c.dir, c.pattern, got, c.want)
		}
	}
}

// TestDefaultConfigScope pins the repo policy: the deterministic core is
// covered, the sanctioned wall-clock readers are allowed, and the
// non-deterministic serving layer is out of maprange scope.
func TestDefaultConfigScope(t *testing.T) {
	cfg := DefaultConfig()
	for _, dir := range []string{"internal/machine", "internal/sched", "cmd/dirigent-sim", "cmd/dirigent-bench", "."} {
		if !cfg.deterministic(dir) {
			t.Errorf("%s should be determinism-critical", dir)
		}
	}
	if cfg.deterministic("cmd/dirigent-serve") {
		t.Error("cmd/dirigent-serve should not be determinism-critical")
	}
	for _, check := range []string{"walltime", "nondetsched"} {
		if !cfg.inScope(check, "internal/core") {
			t.Errorf("core must be in %s scope: the runtime reads no wall clock and starts no goroutine", check)
		}
	}
	if cfg.inScope("walltime", "internal/server") {
		t.Error("server should be on the walltime allowlist")
	}
	if !cfg.inScope("walltime", "cmd/dirigent-bench") {
		t.Error("cmd/dirigent-bench must be in walltime scope (satellite: the sim/bench CLIs are scanned)")
	}
	if cfg.inScope("nondetsched", "internal/experiment") {
		t.Error("experiment fan-out should be on the nondetsched allowlist")
	}
	if !cfg.inScope("nondetsched", "internal/machine") {
		t.Error("machine must be in nondetsched scope")
	}
	if !cfg.inScope("nondetsched", "internal/scenario") {
		t.Error("scenario must be in nondetsched scope: its suite fans out through experiment.FanOut")
	}
}
