package golden

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder captures Check's failure report instead of failing the test.
type recorder struct {
	testing.TB
	msgs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// actualPath returns the file a failure report names as holding the whole
// actual output, and removes it when the test ends.
func actualPath(t *testing.T, msg string) string {
	t.Helper()
	_, actual, ok := strings.Cut(msg, "actual output: ")
	if !ok {
		t.Fatalf("report names no actual-output file:\n%s", msg)
	}
	t.Cleanup(func() { os.RemoveAll(filepath.Dir(actual)) })
	return actual
}

// TestCheckNamesFirstDifferingLine is the helper's contract: an unchanged
// value passes, and a one-value change is reported at path:line with the
// wanted and the actual line, next to a file holding the whole actual
// output, which is exactly what re-recording copies over the golden.
func TestCheckNamesFirstDifferingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probes.json")
	pinned := []metric{{"qos_a", 0.75}, {"qos_b", 0.9583333333333334}, {"ways_c", 9}}
	data, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := &recorder{TB: t}
	Check(rec, path, pinned)
	if len(rec.msgs) != 0 {
		t.Fatalf("unchanged value reported a mismatch: %v", rec.msgs)
	}

	moved := append([]metric(nil), pinned...)
	moved[1].Value *= 0.8
	Check(rec, path, moved)
	if len(rec.msgs) != 1 {
		t.Fatalf("a 20%% drop gave %d reports, want 1: %v", len(rec.msgs), rec.msgs)
	}
	msg := rec.msgs[0]
	for _, want := range []string{
		path + ":8: ",
		`want:     "value": 0.9583333333333334`,
		`got:      "value": 0.7666666666666667`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q:\n%s", want, msg)
		}
	}
	actual := actualPath(t, msg)
	written, err := os.ReadFile(actual)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.MarshalIndent(moved, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != string(data)+"\n" {
		t.Errorf("%s does not hold the whole actual output:\n%s", actual, written)
	}

	// Copying the written file over the golden re-records it.
	if err := os.WriteFile(path, written, 0o644); err != nil {
		t.Fatal(err)
	}
	rec.msgs = nil
	Check(rec, path, moved)
	if len(rec.msgs) != 0 {
		t.Errorf("re-recorded golden still differs: %v", rec.msgs)
	}
}

func TestFirstDiffAtEnd(t *testing.T) {
	line, want, got := firstDiff([]byte("a\nb\n"), []byte("a\nb\nc\n"))
	if line != 3 || want != "" || got != "c" {
		t.Errorf("extra line: got (%d, %q, %q), want (3, \"\", \"c\")", line, want, got)
	}
	line, want, got = firstDiff([]byte("a\n"), []byte("a"))
	if line != 2 || want != "" || got != "(end of file)" {
		t.Errorf("missing newline: got (%d, %q, %q), want (2, \"\", \"(end of file)\")", line, want, got)
	}
}
