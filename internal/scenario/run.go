package scenario

import (
	"fmt"

	"dirigent/internal/config"
	"dirigent/internal/experiment"
	"dirigent/internal/sim"
)

// GoalResult is one evaluated goal: the measured value against its
// threshold.
type GoalResult struct {
	// Name is the goal's spec key (min_qos_success, min_bg_throughput,
	// max_tail_latency_s).
	Name string `json:"name"`
	// Value is the measured quantity.
	Value float64 `json:"value"`
	// Threshold is the spec's bound and Op its direction (">=" or "<=").
	Threshold float64 `json:"threshold"`
	Op        string  `json:"op"`
	Pass      bool    `json:"pass"`
}

// Result is one scenario's outcome. Every field is seed-deterministic:
// the same specs produce a byte-identical report.
type Result struct {
	Name         string `json:"name"`
	MachineClass string `json:"machine_class"`
	Policy       string `json:"policy"`
	// Mix is the human-readable mix ("fg | bg").
	Mix string `json:"mix"`
	// QoSSuccess is the worst per-stream success rate; BGThroughput is
	// relative to the Baseline pass; TailLatencyS is the worst per-stream
	// P95 execution latency. All reported even when un-goaled.
	QoSSuccess   float64      `json:"qos_success"`
	BGThroughput float64      `json:"bg_throughput"`
	TailLatencyS float64      `json:"tail_latency_s"`
	Goals        []GoalResult `json:"goals"`
	Pass         bool         `json:"pass"`
}

// SuiteResult is the whole suite's outcome, in spec order.
type SuiteResult struct {
	Results []Result `json:"results"`
	Pass    bool     `json:"pass"`
}

// Failed returns the names of failing scenarios.
func (sr *SuiteResult) Failed() []string {
	var out []string
	for _, r := range sr.Results {
		if !r.Pass {
			out = append(out, r.Name)
		}
	}
	return out
}

// RunSpec executes one scenario: a clean Baseline pass on the scenario's
// machine class defines per-stream deadlines (µ + 0.3σ, the paper's §5.4
// rule) and the throughput denominator, then the policy under test runs
// under the full-runtime configuration (with the spec's fault plan, if
// any) and the goals are evaluated on that run.
func RunSpec(spec Spec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	r := experiment.NewRunner()
	r.MachineClass = spec.MachineClass
	r.Executions = DefaultExecutions
	if spec.Executions > 0 {
		r.Executions = spec.Executions
	}
	r.Warmup = DefaultWarmup
	if spec.Warmup > 0 {
		r.Warmup = spec.Warmup
	}
	r.ConvergenceWarmup = DefaultConvergenceWarmup
	if spec.ConvergenceWarmup > 0 {
		r.ConvergenceWarmup = spec.ConvergenceWarmup
	}
	mix := spec.mix()

	run := func(p experiment.RunParams) (*experiment.RunResult, error) {
		s, err := r.StartSession(mix, p)
		if err != nil {
			return nil, err
		}
		if err := s.RunExecutions(s.Goal(), sim.Time(r.TimeLimit)); err != nil {
			return nil, err
		}
		return s.Collect()
	}

	base, err := run(experiment.RunParams{
		Config: config.Baseline, BGLevel: -1, Executions: r.Executions,
	})
	if err != nil {
		return Result{}, fmt.Errorf("scenario %q: baseline: %w", spec.Name, err)
	}

	deadlines, targets := experiment.Deadlines(base)
	managed, err := run(experiment.RunParams{
		Config:      config.Dirigent,
		Policy:      spec.Policy,
		Targets:     targets,
		Deadlines:   deadlines,
		BGLevel:     -1,
		Executions:  r.Executions,
		ExtraWarmup: r.ConvergenceWarmup,
		Faults:      spec.Faults.Plan(),
	})
	if err != nil {
		return Result{}, fmt.Errorf("scenario %q: policy %s: %w", spec.Name, spec.Policy, err)
	}

	res := Result{
		Name:         spec.Name,
		MachineClass: spec.MachineClass,
		Policy:       spec.Policy,
		Mix:          mixLabel(spec.Mix),
		QoSSuccess:   managed.MinSuccessRate(),
		TailLatencyS: maxTailLatency(managed),
		Pass:         true,
	}
	if base.BGInstrRate > 0 {
		res.BGThroughput = managed.BGInstrRate / base.BGInstrRate
	}

	g := spec.Goals
	if g.MinQoSSuccess > 0 {
		res.Goals = append(res.Goals, goal("min_qos_success", res.QoSSuccess, g.MinQoSSuccess, ">="))
	}
	if g.MinBGThroughput > 0 {
		res.Goals = append(res.Goals, goal("min_bg_throughput", res.BGThroughput, g.MinBGThroughput, ">="))
	}
	if g.MaxTailLatencyS > 0 {
		res.Goals = append(res.Goals, goal("max_tail_latency_s", res.TailLatencyS, g.MaxTailLatencyS, "<="))
	}
	for _, gr := range res.Goals {
		if !gr.Pass {
			res.Pass = false
		}
	}
	return res, nil
}

func goal(name string, value, threshold float64, op string) GoalResult {
	pass := value >= threshold
	if op == "<=" {
		pass = value <= threshold
	}
	return GoalResult{Name: name, Value: value, Threshold: threshold, Op: op, Pass: pass}
}

func maxTailLatency(rr *experiment.RunResult) float64 {
	worst := 0.0
	for _, s := range rr.Streams {
		if s.Summary.P95 > worst {
			worst = s.Summary.P95
		}
	}
	return worst
}

func mixLabel(m MixSpec) string {
	label := ""
	for i, f := range m.FG {
		if i > 0 {
			label += ","
		}
		label += f
	}
	label += " | "
	for i, b := range m.BG {
		if i > 0 {
			label += ","
		}
		label += b
	}
	return label
}

// RunSuite executes every spec concurrently through experiment.FanOut
// (bounded by DIRIGENT_MAX_PARALLEL) and returns results in spec order.
// The first run error aborts the suite — an unrunnable scenario is a
// broken gate, not a failed goal.
func RunSuite(specs []Spec) (*SuiteResult, error) {
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	experiment.FanOut(len(specs), func(i int) {
		results[i], errs[i] = RunSpec(specs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", specs[i].Name, err)
		}
	}
	sr := &SuiteResult{Results: results, Pass: true}
	for _, r := range results {
		if !r.Pass {
			sr.Pass = false
		}
	}
	return sr, nil
}
