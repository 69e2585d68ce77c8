package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validSpecJSON is a fully populated spec exercising every optional field.
const validSpecJSON = `{
  "name": "smoke",
  "description": "test spec",
  "seed": 7,
  "duration_s": 5,
  "arrival": {"model": "bursty", "rate_per_s": 2, "burst_factor": 3, "on_s": 1, "off_s": 1},
  "lifetime": {"mean_s": 2, "min_s": 0.5},
  "retarget_rate_per_s": 0.5,
  "max_live": 8,
  "tenants": [
    {"name": "rt", "weight": 2, "mix": {"fg": ["ferret"], "bg": ["pca"]}, "target_ms": [1500]},
    {"name": "base", "config": "Baseline", "machine_class": "quad-low",
     "mix": {"fg": ["bodytrack"]}, "target_ms": [2000], "executions": 4}
  ]
}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSpecValid(t *testing.T) {
	path := writeSpec(t, validSpecJSON)
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "smoke" || s.Seed != 7 || s.MaxLive != 8 || len(s.Tenants) != 2 {
		t.Errorf("unexpected spec: %+v", s)
	}
	if s.file != path {
		t.Errorf("file = %q, want %q", s.file, path)
	}
	if got := s.Template("base"); got == nil || got.ConfigName() != "Baseline" {
		t.Errorf("Template(base) = %+v", got)
	}
	if got := s.Template("rt"); got == nil || got.ConfigName() != DefaultConfig ||
		got.ExecutionGoal() != DefaultExecutions {
		t.Errorf("rt defaults not applied: %+v", got)
	}
	if s.Template("nope") != nil {
		t.Error("Template(nope) should be nil")
	}
}

// Unknown fields must be rejected so a typoed knob fails loudly instead of
// silently generating the wrong load.
func TestLoadSpecUnknownField(t *testing.T) {
	path := writeSpec(t, strings.Replace(validSpecJSON, `"max_live"`, `"maxlive"`, 1))
	_, err := LoadSpec(path)
	if err == nil || !strings.Contains(err.Error(), "maxlive") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name the file: %v", err)
	}
}

func TestLoadSpecBadValues(t *testing.T) {
	cases := []struct {
		name, old, new, want string
	}{
		{"negative rate", `"rate_per_s": 2`, `"rate_per_s": -2`, "rate_per_s"},
		{"zero duration", `"duration_s": 5`, `"duration_s": 0`, "duration_s"},
		{"bad model", `"model": "bursty"`, `"model": "linear"`, "unknown model"},
		{"burst below one", `"burst_factor": 3`, `"burst_factor": 0.5`, "burst_factor"},
		{"zero lifetime", `"mean_s": 2`, `"mean_s": 0`, "mean_s"},
		{"negative retarget", `"retarget_rate_per_s": 0.5`, `"retarget_rate_per_s": -1`, "retarget_rate_per_s"},
		{"bad class", `"machine_class": "quad-low"`, `"machine_class": "cray-1"`, "cray-1"},
		{"bad config", `"config": "Baseline"`, `"config": "Turbo"`, "Turbo"},
		{"bad target count", `"target_ms": [2000]`, `"target_ms": [2000, 1]`, "target_ms"},
		{"negative weight", `"weight": 2`, `"weight": -2`, "weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSpec(t, strings.Replace(validSpecJSON, tc.old, tc.new, 1))
			_, err := LoadSpec(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error does not name the offending file: %v", err)
			}
		})
	}
}

func TestLoadSpecDuplicateTemplate(t *testing.T) {
	path := writeSpec(t, strings.Replace(validSpecJSON, `"name": "base"`, `"name": "rt"`, 1))
	_, err := LoadSpec(path)
	if err == nil || !strings.Contains(err.Error(), `duplicate tenant template "rt"`) {
		t.Fatalf("duplicate template not rejected: %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name the offending file: %v", err)
	}
}

func TestLoadSpecTrailingData(t *testing.T) {
	path := writeSpec(t, validSpecJSON+"\n{\"extra\": true}")
	_, err := LoadSpec(path)
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing data not rejected: %v", err)
	}
}

func TestLoadSpecMissingFile(t *testing.T) {
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file not reported")
	}
}

// A mix that cannot fit its machine class must be rejected at load time,
// not discovered as a burst of 400s mid-replay.
func TestLoadSpecMixOverflowsClass(t *testing.T) {
	body := strings.Replace(validSpecJSON,
		`"mix": {"fg": ["bodytrack"]}`,
		`"mix": {"fg": ["bodytrack"], "bg": ["pca", "pca", "pca", "pca"]}`, 1)
	path := writeSpec(t, body)
	_, err := LoadSpec(path)
	if err == nil || !strings.Contains(err.Error(), "cores") {
		t.Fatalf("oversized mix not rejected: %v", err)
	}
}
