// Package golden compares a test's pinned output with its recorded file.
// Every golden in the module goes through Check: the value is marshalled
// as indented JSON plus a newline and compared byte for byte, and a
// mismatch names the first line that moved.
//
// There is no write mode. On a mismatch Check writes the whole actual
// output to a file outside the repository and prints its path; re-recording
// a golden means copying that file over it (and saying in CHANGES.md which
// values moved and why). A new golden starts as an empty file.
package golden

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Check compares v, marshalled as indented JSON plus a newline, with the
// file at path (relative to the test's package directory). On a mismatch
// it reports path:line of the first differing line with the wanted and
// the actual line, and the path of a temporary file holding the whole
// actual output.
func Check(t testing.TB, path string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	dir, err := os.MkdirTemp("", "golden-")
	if err != nil {
		t.Fatal(err)
	}
	actual := filepath.Join(dir, filepath.Base(path))
	if err := os.WriteFile(actual, got, 0o644); err != nil {
		t.Fatal(err)
	}
	line, wantLine, gotLine := firstDiff(want, got)
	t.Errorf("%s:%d: output differs from the golden\n  want: %s\n  got:  %s\nactual output: %s",
		path, line, wantLine, gotLine, actual)
}

// firstDiff returns the 1-based number of the first line where want and
// got differ, and that line of each. A side that has already ended reads
// "(end of file)".
func firstDiff(want, got []byte) (line int, wantLine, gotLine string) {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	i := 0
	for i < len(w) && i < len(g) && bytes.Equal(w[i], g[i]) {
		i++
	}
	return i + 1, lineAt(w, i), lineAt(g, i)
}

func lineAt(lines [][]byte, i int) string {
	if i >= len(lines) {
		return "(end of file)"
	}
	return string(lines[i])
}
