package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSpec drops a spec file into dir and returns its path.
func writeSpec(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validSpec = `{
  "name": "ferret-vs-rs",
  "machine_class": "xeon-e5",
  "mix": {"fg": ["ferret"], "bg": ["rs"]},
  "policy": "dirigent",
  "executions": 10,
  "goals": {"min_qos_success": 0.5}
}`

func TestLoadValidSpec(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, "a.json", validSpec)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "ferret-vs-rs" || s.MachineClass != "xeon-e5" || s.Policy != "dirigent" {
		t.Fatalf("spec fields wrong: %+v", s)
	}
	if got := s.mix().Seed(); got == 0 {
		t.Fatal("mix seed should derive from the scenario name")
	}
}

func TestLoadRejectsUnknownField(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, "typo.json", `{
  "name": "typo",
  "machine_class": "xeon-e5",
  "mix": {"fg": ["ferret"]},
  "policy": "dirigent",
  "goals": {"min_qos_sucess": 0.5}
}`)
	_, err := Load(path)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error does not name the file: %v", err)
	}
	if !strings.Contains(err.Error(), "min_qos_sucess") {
		t.Fatalf("error does not name the unknown field: %v", err)
	}
}

func TestLoadRejectsMissingMachineClass(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, "noclass.json", `{
  "name": "noclass",
  "mix": {"fg": ["ferret"]},
  "policy": "dirigent",
  "goals": {"min_qos_success": 0.5}
}`)
	_, err := Load(path)
	if err == nil {
		t.Fatal("missing machine_class accepted")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "machine_class") {
		t.Fatalf("error should name the file and the missing field: %v", err)
	}
	// The error should help: it lists the valid classes.
	if !strings.Contains(err.Error(), "xeon-e5") {
		t.Fatalf("error should list valid classes: %v", err)
	}
}

func TestLoadRejectsInvalidGoals(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		file  string
		goals string
		want  string
	}{
		{"nogoals.json", `{}`, "at least one"},
		{"range.json", `{"min_qos_success": 1.5}`, "outside [0,1]"},
		{"negbg.json", `{"min_bg_throughput": -0.1}`, "outside [0,1]"},
		{"negtail.json", `{"max_tail_latency_s": -1}`, "must not be negative"},
	}
	for _, c := range cases {
		path := writeSpec(t, dir, c.file, `{
  "name": "goals-`+c.file+`",
  "machine_class": "xeon-e5",
  "mix": {"fg": ["ferret"]},
  "policy": "dirigent",
  "goals": `+c.goals+`
}`)
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: invalid goals accepted", c.file)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error does not name the file: %v", c.file, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.file, err, c.want)
		}
	}
}

func TestLoadRejectsBadMixAndPolicy(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		file, body, want string
	}{
		{"nofg.json", `{
  "name": "nofg", "machine_class": "xeon-e5",
  "mix": {"bg": ["rs"]}, "policy": "dirigent",
  "goals": {"min_qos_success": 0.5}
}`, "fg stream"},
		{"badpolicy.json", `{
  "name": "badpolicy", "machine_class": "xeon-e5",
  "mix": {"fg": ["ferret"]}, "policy": "yolo",
  "goals": {"min_qos_success": 0.5}
}`, "unknown policy"},
		{"toomany.json", `{
  "name": "toomany", "machine_class": "quad-low",
  "mix": {"fg": ["ferret", "bodytrack", "raytrace"], "bg": ["rs", "pca"]},
  "policy": "dirigent",
  "goals": {"min_qos_success": 0.5}
}`, "cores"},
		{"badbench.json", `{
  "name": "badbench", "machine_class": "xeon-e5",
  "mix": {"fg": ["frobnicate"]}, "policy": "dirigent",
  "goals": {"min_qos_success": 0.5}
}`, "frobnicate"},
		{"warmup.json", `{
  "name": "warmup", "machine_class": "xeon-e5",
  "mix": {"fg": ["ferret"]}, "policy": "dirigent",
  "executions": 5, "warmup": 5,
  "goals": {"min_qos_success": 0.5}
}`, "warmup"},
	}
	for _, c := range cases {
		path := writeSpec(t, dir, c.file, c.body)
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: invalid spec accepted", c.file)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.file, err, c.want)
		}
	}
}

func TestLoadDirRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	writeSpec(t, dir, "one.json", validSpec)
	dupPath := writeSpec(t, dir, "two.json", validSpec)
	_, err := LoadDir(dir)
	if err == nil {
		t.Fatal("duplicate scenario names accepted")
	}
	if !strings.Contains(err.Error(), dupPath) || !strings.Contains(err.Error(), "one.json") {
		t.Fatalf("duplicate error should name both files: %v", err)
	}
	if !strings.Contains(err.Error(), "ferret-vs-rs") {
		t.Fatalf("duplicate error should name the colliding scenario: %v", err)
	}
}

func TestLoadDirEmptyAndOrder(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty suite dir accepted")
	}
	dir := t.TempDir()
	writeSpec(t, dir, "b.json", strings.Replace(validSpec, "ferret-vs-rs", "beta", 1))
	writeSpec(t, dir, "a.json", strings.Replace(validSpec, "ferret-vs-rs", "alpha", 1))
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "alpha" || specs[1].Name != "beta" {
		t.Fatalf("suite order not stable by file name: %+v", specs)
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	dir := t.TempDir()
	path := writeSpec(t, dir, "trail.json", validSpec+`{"name": "second"}`)
	if _, err := Load(path); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestShippedSuiteLoads(t *testing.T) {
	specs, err := LoadDir("../../scenarios")
	if err != nil {
		t.Fatalf("shipped scenario suite does not load: %v", err)
	}
	if len(specs) < 8 {
		t.Fatalf("shipped suite has %d scenarios, want >= 8", len(specs))
	}
	classes := map[string]bool{}
	for _, s := range specs {
		classes[s.MachineClass] = true
	}
	if len(classes) < 3 {
		t.Fatalf("shipped suite covers %d machine classes, want >= 3", len(classes))
	}
}
