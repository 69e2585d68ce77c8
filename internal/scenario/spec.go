// Package scenario loads declarative QoS scenarios — machine class +
// workload mix + policy + fault plan + pass goals — from JSON files and
// runs them as a deterministic regression suite. A scenario is the
// DataDog-workload-checks shape applied to this reproduction: "on machine
// class X, mix M under policy P must keep QoS success above A, background
// throughput above B, and tail latency below C". The suite is a CI gate
// (dirigent-ci): adding a scenario file is adding a regression check.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dirigent/internal/experiment"
	"dirigent/internal/fault"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
)

// Default run lengths: long enough for the controllers to reach steady
// state, short enough that a full suite stays a CI-sized job.
const (
	DefaultExecutions        = 30
	DefaultWarmup            = 2
	DefaultConvergenceWarmup = 10
)

// MixSpec names the workload mix: foreground benchmark streams and
// background specs (a background entry may be a rotate pair "a+b").
type MixSpec struct {
	FG []string `json:"fg"`
	BG []string `json:"bg"`
}

// FaultSpec is the JSON form of a deterministic fault plan
// (internal/fault.Plan); latencies are spelled in explicit units so specs
// stay readable.
type FaultSpec struct {
	CounterDropout float64 `json:"counter_dropout"`
	CounterNoise   float64 `json:"counter_noise"`
	TickDrop       float64 `json:"tick_drop"`
	TickLate       float64 `json:"tick_late"`
	TickLatencyMs  float64 `json:"tick_latency_ms"`
	DVFSFail       float64 `json:"dvfs_fail"`
	DVFSLate       float64 `json:"dvfs_late"`
	DVFSLatencyUs  float64 `json:"dvfs_latency_us"`
	PauseFail      float64 `json:"pause_fail"`
	ResumeFail     float64 `json:"resume_fail"`
	ProfileScale   float64 `json:"profile_scale"`
	ProfileRephase float64 `json:"profile_rephase"`
}

// Plan converts the spec to the fault engine's plan.
func (f *FaultSpec) Plan() fault.Plan {
	if f == nil {
		return fault.Plan{}
	}
	return fault.Plan{
		CounterDropout: f.CounterDropout,
		CounterNoise:   f.CounterNoise,
		TickDrop:       f.TickDrop,
		TickLate:       f.TickLate,
		TickLatency:    time.Duration(f.TickLatencyMs * float64(time.Millisecond)),
		DVFSFail:       f.DVFSFail,
		DVFSLate:       f.DVFSLate,
		DVFSLatency:    time.Duration(f.DVFSLatencyUs * float64(time.Microsecond)),
		PauseFail:      f.PauseFail,
		ResumeFail:     f.ResumeFail,
		ProfileScale:   f.ProfileScale,
		ProfileRephase: f.ProfileRephase,
	}
}

// GoalSpec is a scenario's pass criteria. Zero-valued goals are unset; at
// least one must be set.
type GoalSpec struct {
	// MinQoSSuccess is the floor on the worst per-stream QoS success rate.
	MinQoSSuccess float64 `json:"min_qos_success"`
	// MinBGThroughput is the floor on background throughput relative to
	// the Baseline pass.
	MinBGThroughput float64 `json:"min_bg_throughput"`
	// MaxTailLatencyS is the ceiling on the worst per-stream P95 execution
	// latency, in seconds.
	MaxTailLatencyS float64 `json:"max_tail_latency_s"`
}

func (g GoalSpec) unset() bool {
	return g.MinQoSSuccess == 0 && g.MinBGThroughput == 0 && g.MaxTailLatencyS == 0
}

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario (unique within a suite) and seeds its
	// runs, so a renamed scenario is a different deterministic experiment.
	Name        string `json:"name"`
	Description string `json:"description"`
	// MachineClass picks the hardware (machine.ClassNames); required.
	MachineClass string  `json:"machine_class"`
	Mix          MixSpec `json:"mix"`
	// Policy is the QoS policy under test (internal/policy registry name).
	Policy string `json:"policy"`
	// Executions/Warmup/ConvergenceWarmup override the suite defaults when
	// positive.
	Executions        int `json:"executions"`
	Warmup            int `json:"warmup"`
	ConvergenceWarmup int `json:"convergence_warmup"`
	// Faults optionally injects a deterministic fault plan into the policy
	// run (the Baseline pass is always clean).
	Faults *FaultSpec `json:"faults,omitempty"`
	Goals  GoalSpec   `json:"goals"`
}

// Mix assembles the experiment mix. The mix carries the scenario name, so
// the run seed is derived from it deterministically.
func (s Spec) mix() experiment.Mix {
	return experiment.Mix{Name: s.Name, FG: s.Mix.FG, BG: s.Mix.BG}
}

// Validate checks a single spec in isolation; suite-level checks
// (duplicate names) live in LoadDir.
func (s Spec) Validate() error {
	if s.Name == "" {
		return errors.New("scenario: missing name")
	}
	if strings.TrimSpace(s.Name) != s.Name || strings.ContainsAny(s.Name, " \t\n") {
		return fmt.Errorf("scenario %q: name must not contain whitespace", s.Name)
	}
	if s.MachineClass == "" {
		return fmt.Errorf("scenario %q: missing machine_class (valid: %v)", s.Name, machine.ClassNames())
	}
	mcfg, err := machine.ClassConfig(s.MachineClass)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if len(s.Mix.FG) == 0 {
		return fmt.Errorf("scenario %q: mix needs at least one fg stream", s.Name)
	}
	if err := s.mix().Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if need := len(s.Mix.FG) + len(s.Mix.BG); need > mcfg.Cores {
		return fmt.Errorf("scenario %q: mix needs %d cores, class %s has %d",
			s.Name, need, s.MachineClass, mcfg.Cores)
	}
	if s.Policy == "" || !policy.Valid(s.Policy) {
		return fmt.Errorf("scenario %q: unknown policy %q (valid: %s)",
			s.Name, s.Policy, strings.Join(policy.Names(), ", "))
	}
	if s.Executions < 0 || s.Warmup < 0 || s.ConvergenceWarmup < 0 {
		return fmt.Errorf("scenario %q: executions/warmup counts must not be negative", s.Name)
	}
	if s.Executions > 0 && s.Warmup >= s.Executions {
		return fmt.Errorf("scenario %q: warmup %d must be below executions %d", s.Name, s.Warmup, s.Executions)
	}
	g := s.Goals
	if g.unset() {
		return fmt.Errorf("scenario %q: goals must set at least one of min_qos_success, min_bg_throughput, max_tail_latency_s", s.Name)
	}
	if g.MinQoSSuccess < 0 || g.MinQoSSuccess > 1 {
		return fmt.Errorf("scenario %q: min_qos_success %g outside [0,1]", s.Name, g.MinQoSSuccess)
	}
	if g.MinBGThroughput < 0 || g.MinBGThroughput > 1 {
		return fmt.Errorf("scenario %q: min_bg_throughput %g outside [0,1]", s.Name, g.MinBGThroughput)
	}
	if g.MaxTailLatencyS < 0 {
		return fmt.Errorf("scenario %q: max_tail_latency_s %g must not be negative", s.Name, g.MaxTailLatencyS)
	}
	return nil
}

// Load parses and validates one scenario file. Unknown fields are rejected
// — a typoed goal name must fail loudly, not silently gate nothing.
func Load(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	// Trailing garbage after the JSON object is as much a mistake as an
	// unknown field.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: %s: trailing data after spec object", path)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir loads every *.json spec in dir (sorted by file name for a stable
// suite order) and rejects duplicate scenario names across files.
func LoadDir(dir string) ([]Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	sort.Strings(paths)
	specs := make([]Spec, 0, len(paths))
	byName := map[string]string{}
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("scenario: %s: duplicate scenario name %q (already defined in %s)", p, s.Name, prev)
		}
		byName[s.Name] = p
		specs = append(specs, s)
	}
	return specs, nil
}
