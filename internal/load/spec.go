package load

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"dirigent/internal/config"
	"dirigent/internal/machine"
	"dirigent/internal/policy"
)

// Default sizing for fields a spec may omit.
const (
	// DefaultExecutions is the per-tenant FG execution goal when a template
	// does not set one: long enough for a QoS sample, short enough that a
	// finished tenant idles cheaply until its eviction arrives.
	DefaultExecutions = 12
	// DefaultConfig is the configuration a template runs under when it does
	// not name one.
	DefaultConfig = "DirigentFreq"
)

// Arrival models.
const (
	// ModelPoisson is a homogeneous Poisson process at rate_per_s.
	ModelPoisson = "poisson"
	// ModelBursty is an ON/OFF square wave: arrivals at
	// rate_per_s*burst_factor during ON windows (on_s seconds) and
	// rate_per_s/burst_factor during OFF windows (off_s seconds).
	ModelBursty = "bursty"
	// ModelDiurnal modulates rate_per_s with a raised cosine of period
	// period_s, dipping to trough*rate_per_s at the nadir.
	ModelDiurnal = "diurnal"
)

// MixSpec names a template's workload mix (the server MixSpec shape minus
// the name, which the generator derives per tenant).
type MixSpec struct {
	FG []string `json:"fg"`
	BG []string `json:"bg"`
}

// ArrivalSpec is the tenant-arrival process. rate_per_s is the base rate;
// the bursty and diurnal models modulate it (see the Model* constants).
type ArrivalSpec struct {
	Model       string  `json:"model"`
	RatePerS    float64 `json:"rate_per_s"`
	BurstFactor float64 `json:"burst_factor,omitempty"`
	OnS         float64 `json:"on_s,omitempty"`
	OffS        float64 `json:"off_s,omitempty"`
	PeriodS     float64 `json:"period_s,omitempty"`
	Trough      float64 `json:"trough,omitempty"`
}

// peak is the thinning envelope: the maximum instantaneous rate the model
// reaches, used as the candidate rate for Lewis-Shedler thinning.
func (a ArrivalSpec) peak() float64 {
	if a.Model == ModelBursty {
		return a.RatePerS * a.BurstFactor
	}
	return a.RatePerS
}

// rateAt is the instantaneous arrival rate at trace time t (seconds).
func (a ArrivalSpec) rateAt(t float64) float64 {
	switch a.Model {
	case ModelBursty:
		cycle := a.OnS + a.OffS
		if math.Mod(t, cycle) < a.OnS {
			return a.RatePerS * a.BurstFactor
		}
		return a.RatePerS / a.BurstFactor
	case ModelDiurnal:
		depth := a.Trough + float64((1-a.Trough)*0.5*(1-math.Cos(2*math.Pi*t/a.PeriodS)))
		return a.RatePerS * depth
	default: // poisson
		return a.RatePerS
	}
}

// LifetimeSpec draws tenant lifetimes: exponential with mean mean_s,
// clamped up to min_s so a tenant always lives long enough to be worth
// creating.
type LifetimeSpec struct {
	MeanS float64 `json:"mean_s"`
	MinS  float64 `json:"min_s,omitempty"`
}

// TenantTemplate is one (machine class × mix × policy) sample the
// generator draws tenants from, weighted by Weight (default 1).
type TenantTemplate struct {
	Name string `json:"name"`
	// Weight is the template's relative draw probability (omitted = 1).
	Weight float64 `json:"weight,omitempty"`
	// MachineClass picks the tenant's hardware (machine.ClassNames);
	// omitted = the server default class.
	MachineClass string  `json:"machine_class,omitempty"`
	Mix          MixSpec `json:"mix"`
	// Config is the system configuration (omitted = DirigentFreq).
	Config string `json:"config,omitempty"`
	// Policy is the QoS policy for runtime configurations (omitted = the
	// configuration's default, i.e. dirigent).
	Policy string `json:"policy,omitempty"`
	// TargetMS are per-FG-stream latency targets in milliseconds; they
	// also become the success-rate deadlines.
	TargetMS []float64 `json:"target_ms"`
	// Executions is the per-tenant FG execution goal (omitted =
	// DefaultExecutions).
	Executions int `json:"executions,omitempty"`
}

// weight returns the template's draw weight with the default applied.
func (t TenantTemplate) weight() float64 {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}

// ConfigName returns the template's configuration with the default applied.
func (t TenantTemplate) ConfigName() string {
	if t.Config == "" {
		return DefaultConfig
	}
	return t.Config
}

// ExecutionGoal returns the execution count with the default applied.
func (t TenantTemplate) ExecutionGoal() int {
	if t.Executions == 0 {
		return DefaultExecutions
	}
	return t.Executions
}

// useRuntime reports whether the template's configuration drives the
// Dirigent runtime (validated specs only).
func (t TenantTemplate) useRuntime() bool {
	cfg, err := config.ByName(config.Name(t.ConfigName()))
	return err == nil && cfg.UseRuntime
}

// Spec is one declarative load specification: an arrival process, a
// lifetime model, and a weighted set of tenant templates.
type Spec struct {
	// Name identifies the spec; it is stamped into synthesized traces.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed is the default synthesis seed (overridable per invocation).
	Seed uint64 `json:"seed,omitempty"`
	// DurationS is the trace length in seconds.
	DurationS float64      `json:"duration_s"`
	Arrival   ArrivalSpec  `json:"arrival"`
	Lifetime  LifetimeSpec `json:"lifetime"`
	// RetargetRatePerS is the per-tenant rate of deadline-retarget events
	// (runtime-configuration templates only; 0 disables).
	RetargetRatePerS float64 `json:"retarget_rate_per_s,omitempty"`
	// MaxLive caps concurrently live tenants; arrivals past the cap are
	// suppressed at synthesis time and counted in the trace header
	// (0 = unlimited).
	MaxLive int              `json:"max_live,omitempty"`
	Tenants []TenantTemplate `json:"tenants"`

	// file is the path the spec was loaded from, for error messages
	// ("" for in-memory specs).
	file string
}

// where prefixes validation errors with the source file when known.
func (s Spec) where() string {
	if s.file == "" {
		return fmt.Sprintf("load spec %q", s.Name)
	}
	return fmt.Sprintf("load spec %q (%s)", s.Name, s.file)
}

// Template returns the named tenant template, or nil.
func (s Spec) Template(name string) *TenantTemplate {
	for i := range s.Tenants {
		if s.Tenants[i].Name == name {
			return &s.Tenants[i]
		}
	}
	return nil
}

// Validate checks the spec. Errors name the source file when the spec was
// loaded from one.
func (s Spec) Validate() error {
	if s.Name == "" {
		if s.file != "" {
			return fmt.Errorf("load spec %s: missing name", s.file)
		}
		return errors.New("load spec: missing name")
	}
	if strings.TrimSpace(s.Name) != s.Name || strings.ContainsAny(s.Name, " \t\n") {
		return fmt.Errorf("%s: name must not contain whitespace", s.where())
	}
	if s.DurationS <= 0 {
		return fmt.Errorf("%s: duration_s %g must be positive", s.where(), s.DurationS)
	}
	if err := s.Arrival.validate(); err != nil {
		return fmt.Errorf("%s: %w", s.where(), err)
	}
	if s.Lifetime.MeanS <= 0 {
		return fmt.Errorf("%s: lifetime.mean_s %g must be positive", s.where(), s.Lifetime.MeanS)
	}
	if s.Lifetime.MinS < 0 {
		return fmt.Errorf("%s: lifetime.min_s %g must not be negative", s.where(), s.Lifetime.MinS)
	}
	if s.RetargetRatePerS < 0 {
		return fmt.Errorf("%s: retarget_rate_per_s %g must not be negative", s.where(), s.RetargetRatePerS)
	}
	if s.MaxLive < 0 {
		return fmt.Errorf("%s: max_live %d must not be negative", s.where(), s.MaxLive)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("%s: needs at least one tenant template", s.where())
	}
	seen := map[string]bool{}
	for i, t := range s.Tenants {
		if err := s.validateTemplate(t); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("%s: duplicate tenant template %q (template %d)", s.where(), t.Name, i)
		}
		seen[t.Name] = true
	}
	return nil
}

func (a ArrivalSpec) validate() error {
	switch a.Model {
	case ModelPoisson:
	case ModelBursty:
		if a.BurstFactor < 1 {
			return fmt.Errorf("arrival: bursty burst_factor %g must be >= 1", a.BurstFactor)
		}
		if a.OnS <= 0 || a.OffS <= 0 {
			return fmt.Errorf("arrival: bursty on_s/off_s must be positive (got %g/%g)", a.OnS, a.OffS)
		}
	case ModelDiurnal:
		if a.PeriodS <= 0 {
			return fmt.Errorf("arrival: diurnal period_s %g must be positive", a.PeriodS)
		}
		if a.Trough < 0 || a.Trough > 1 {
			return fmt.Errorf("arrival: diurnal trough %g outside [0,1]", a.Trough)
		}
	default:
		return fmt.Errorf("arrival: unknown model %q (valid: %s, %s, %s)",
			a.Model, ModelPoisson, ModelBursty, ModelDiurnal)
	}
	if a.RatePerS <= 0 {
		return fmt.Errorf("arrival: rate_per_s %g must be positive", a.RatePerS)
	}
	return nil
}

func (s Spec) validateTemplate(t TenantTemplate) error {
	at := func(format string, args ...any) error {
		return fmt.Errorf("%s: template %q: %s", s.where(), t.Name, fmt.Sprintf(format, args...))
	}
	if t.Name == "" {
		return fmt.Errorf("%s: template with empty name", s.where())
	}
	if strings.ContainsAny(t.Name, " \t\n") {
		return at("name must not contain whitespace")
	}
	if t.Weight < 0 {
		return at("weight %g must not be negative", t.Weight)
	}
	class := t.MachineClass
	if class == "" {
		class = machine.DefaultClass
	}
	mcfg, err := machine.ClassConfig(class)
	if err != nil {
		return at("%v", err)
	}
	if len(t.Mix.FG) == 0 {
		return at("mix needs at least one fg stream")
	}
	if need := len(t.Mix.FG) + len(t.Mix.BG); need > mcfg.Cores {
		return at("mix needs %d cores, class %s has %d", need, class, mcfg.Cores)
	}
	if _, err := config.ByName(config.Name(t.ConfigName())); err != nil {
		return at("%v", err)
	}
	if t.Policy != "" && !policy.Valid(t.Policy) {
		return at("unknown policy %q (valid: %s)", t.Policy, strings.Join(policy.Names(), ", "))
	}
	if len(t.TargetMS) != len(t.Mix.FG) {
		return at("%d target_ms entries for %d fg streams", len(t.TargetMS), len(t.Mix.FG))
	}
	for i, ms := range t.TargetMS {
		if ms <= 0 {
			return at("target_ms[%d] %g must be positive", i, ms)
		}
	}
	if t.Executions < 0 {
		return at("executions %d must not be negative", t.Executions)
	}
	return nil
}

// LoadSpec parses and validates one load-spec file. Unknown fields and
// trailing data are rejected — a typoed rate must fail loudly, not
// silently generate the wrong load.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("load spec: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("load spec %s: %w", path, err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("load spec %s: trailing data after spec object", path)
	}
	s.file = path
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
