package experiment

import (
	"fmt"
	"strings"

	"dirigent/internal/config"
	"dirigent/internal/policy"
)

// PolicyMixResult bundles one mix's runs across QoS policies. Each policy
// runs under the full-runtime configuration (config.Dirigent) with the
// policy swapped behind the engine; Baseline runs once to define the
// deadlines and the throughput denominator, exactly as in RunMix.
type PolicyMixResult struct {
	Mix Mix
	// Deadlines are the per-stream deadlines (seconds) from the Baseline
	// pass.
	Deadlines []float64
	// Baseline is the unmanaged run the relative metrics divide by.
	Baseline *RunResult
	// ByPolicy maps policy name to its run.
	ByPolicy map[string]*RunResult
}

// RelBGThroughput returns the policy's BG throughput relative to Baseline.
func (pmr *PolicyMixResult) RelBGThroughput(p string) float64 {
	run := pmr.ByPolicy[p]
	if pmr.Baseline == nil || run == nil || pmr.Baseline.BGInstrRate == 0 {
		return 0
	}
	return run.BGInstrRate / pmr.Baseline.BGInstrRate
}

// PolicySweepResult holds a PolicySweep's outcome: the policy axis plus one
// PolicyMixResult per mix, in input order.
type PolicySweepResult struct {
	Policies []string
	Mixes    []*PolicyMixResult
}

// PolicySweep runs each mix once per QoS policy (plus one Baseline pass per
// mix) and reports FG success against relative BG throughput — the paper's
// Fig. 10 axes, with the policy engine as the dimension instead of the five
// system configurations. Policies default to every registered policy; mixes
// run concurrently like RunMixes. All policies get the runner's convergence
// warmup so adaptive and static controllers are scored on steady state
// alike.
func (r *Runner) PolicySweep(mixes []Mix, policies []string) (*PolicySweepResult, error) {
	if len(policies) == 0 {
		policies = policy.Names()
	}
	for _, p := range policies {
		if !policy.Valid(p) {
			return nil, fmt.Errorf("experiment: unknown policy %q (valid: %s)",
				p, strings.Join(policy.Names(), ", "))
		}
	}
	pmrs, err := FanOut(len(mixes), func(i int) (*PolicyMixResult, error) {
		pmr, err := r.policySweepMix(mixes[i], policies)
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", mixes[i].Name, err)
		}
		return pmr, nil
	})
	if err != nil {
		return nil, err
	}
	return &PolicySweepResult{Policies: policies, Mixes: pmrs}, nil
}

// policySweepMix runs one mix's Baseline pass and per-policy runs.
func (r *Runner) policySweepMix(mix Mix, policies []string) (*PolicyMixResult, error) {
	base, deadlines, targets, err := r.Baseline(mix)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	applyDeadlines(base, deadlines)
	pmr := &PolicyMixResult{Mix: mix, Deadlines: deadlines, Baseline: base, ByPolicy: map[string]*RunResult{}}
	for _, p := range policies {
		run, err := r.Run(mix, RunParams{
			Config:      config.Dirigent,
			Policy:      p,
			Targets:     targets,
			Deadlines:   deadlines,
			BGLevel:     -1,
			ExtraWarmup: r.ConvergenceWarmup,
		})
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p, err)
		}
		pmr.ByPolicy[p] = run
	}
	return pmr, nil
}

// RenderPolicySweep renders the sweep in the comparison-figure layout: one
// row per mix, one column per policy, each cell FG success / relative BG
// throughput.
func RenderPolicySweep(title string, res *PolicySweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	// Header and row cells share one width, so each cell ends under the
	// end of its policy's name.
	const cell = " %12s"
	fmt.Fprintf(&b, "%-36s", "mix")
	for _, p := range res.Policies {
		fmt.Fprintf(&b, cell, p)
	}
	fmt.Fprintf(&b, "   (each cell: FG success / rel BG throughput)\n")
	for _, pmr := range res.Mixes {
		fmt.Fprintf(&b, "%-36s", pmr.Mix.Name)
		for _, p := range res.Policies {
			fmt.Fprintf(&b, cell, fmt.Sprintf("%4.2f/%5.2f", pmr.ByPolicy[p].MeanSuccessRate(), pmr.RelBGThroughput(p)))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
