package benchreg

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
)

// SchemaVersion is bumped whenever the baseline file format changes
// incompatibly; Load refuses files written by a different major schema so a
// stale gate never silently compares apples to oranges.
const SchemaVersion = 1

// baselinePattern matches committed baseline files: BENCH_<n>.json.
var baselinePattern = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// MetricKind names a metric's comparison regime. Exact is the only one
// the suite records; the "perf" metrics of BENCH_1 to BENCH_6 still load,
// and fail a check as missing.
type MetricKind string

// Exact marks seed-deterministic simulation outputs (QoS completion rates,
// prediction error). Same seeds must reproduce them bit for bit, so any
// deviation beyond float-printing noise fails the gate: a behaviour change
// must be acknowledged by re-recording the baseline.
const Exact MetricKind = "exact"

// Metric is one measured quantity of a suite run. Its fields are the
// schema-1 record; Stat, Samples and Min are written for older readers of
// the format and carry the one value again.
type Metric struct {
	// Name identifies the metric; comparison is by name.
	Name string `json:"name"`
	// Unit is the human-readable unit ("ratio", "fraction", "ways", ...).
	Unit string `json:"unit"`
	// Kind is the comparison regime (always Exact).
	Kind MetricKind `json:"kind"`
	// HigherBetter orients the failure message (true for success rates and
	// throughput, false for error fractions).
	HigherBetter bool `json:"higher_better,omitempty"`
	// Stat names the compared statistic (always "median").
	Stat string `json:"stat"`
	// Samples holds the value as the one sample.
	Samples []float64 `json:"samples"`
	// Median is the compared value; Min repeats it.
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
}

// Value returns the number used for comparison.
func (m *Metric) Value() float64 { return m.Median }

// exact builds the schema-1 record of one seed-deterministic value.
func exact(name, unit string, higherBetter bool, v float64) Metric {
	return Metric{Name: name, Unit: unit, Kind: Exact, HigherBetter: higherBetter,
		Stat: "median", Samples: []float64{v}, Median: v, Min: v}
}

// Environment stamps where a baseline was recorded. The exact metrics do
// not depend on it; it is kept as provenance.
type Environment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// CurrentEnvironment describes the running process.
func CurrentEnvironment() Environment {
	return Environment{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Baseline is one recorded suite run — the content of a BENCH_<n>.json file.
type Baseline struct {
	// Schema is the file format version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Tool identifies the writer ("dirigent-ci").
	Tool string `json:"tool"`
	// RecordedAt is an RFC 3339 timestamp, stamped by the recording command
	// (the library itself never reads the wall clock for content).
	RecordedAt string `json:"recorded_at,omitempty"`
	// Env is the recording environment.
	Env Environment `json:"env"`
	// Metrics are the suite's measurements, in suite order.
	Metrics []Metric `json:"metrics"`
}

// Metric returns the named metric, or nil.
func (b *Baseline) Metric(name string) *Metric {
	for i := range b.Metrics {
		if b.Metrics[i].Name == name {
			return &b.Metrics[i]
		}
	}
	return nil
}

// Save writes the baseline as indented JSON. The write goes through a
// temporary file in the same directory so a crash never leaves a truncated
// baseline behind.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("benchreg: encode baseline: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-*.json")
	if err != nil {
		return fmt.Errorf("benchreg: save baseline: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("benchreg: save baseline: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("benchreg: save baseline: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("benchreg: save baseline: %w", err)
	}
	return nil
}

// Load reads and validates a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchreg: load baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchreg: parse %s: %w", path, err)
	}
	if b.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchreg: %s has schema %d, this tool reads %d (re-record the baseline)",
			path, b.Schema, SchemaVersion)
	}
	if len(b.Metrics) == 0 {
		return nil, fmt.Errorf("benchreg: %s contains no metrics", path)
	}
	return &b, nil
}

// LatestPath returns the highest-numbered BENCH_<n>.json in dir, or an error
// when none exists yet.
func LatestPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("benchreg: scan %s: %w", dir, err)
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := baselinePattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue // out-of-range index; not a usable baseline
		}
		if n > bestN {
			best, bestN = e.Name(), n
		}
	}
	if bestN < 0 {
		return "", fmt.Errorf("benchreg: no BENCH_<n>.json baseline in %s (run with -record first)", dir)
	}
	return filepath.Join(dir, best), nil
}

// NextPath returns the path the next recorded baseline should be written to:
// BENCH_<n+1>.json after the highest existing n, BENCH_1.json in a fresh
// repository.
func NextPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("benchreg: scan %s: %w", dir, err)
	}
	maxN := 0
	for _, e := range entries {
		m := baselinePattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue // out-of-range index; not a usable baseline
		}
		if n > maxN {
			maxN = n
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", maxN+1)), nil
}
