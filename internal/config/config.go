// Package config defines the five system configurations the paper
// evaluates (§5.4):
//
//   - Baseline: all cores at maximum frequency, free contention for the
//     shared LLC; no management at all. Highest BG throughput, poor FG
//     predictability.
//   - StaticFreq: FG cores at maximum frequency, BG cores statically at the
//     slowest speed (1.2 GHz); shared LLC.
//   - StaticBoth: the best static cache partition plus the best static BG
//     frequency — representative of coarse-grained prior schemes such as
//     Heracles in this scenario (the paper's reading, §5.4).
//   - DirigentFreq: Dirigent's fine time scale control only (DVFS +
//     pausing), no cache partitioning.
//   - Dirigent: the full system — fine time scale control plus coarse time
//     scale cache partitioning.
//
// The two static configurations are "semi-static": their parameters are
// tuned offline per workload mix, exactly as the paper tunes them (the best
// static partition is verified near-optimal against Dirigent's heuristic;
// the BG frequency is the best fixed choice). The experiment harness
// performs that offline calibration.
package config

import "fmt"

// Name identifies a configuration.
type Name string

// The five evaluated configurations.
const (
	Baseline     Name = "Baseline"
	StaticFreq   Name = "StaticFreq"
	StaticBoth   Name = "StaticBoth"
	DirigentFreq Name = "DirigentFreq"
	Dirigent     Name = "Dirigent"
)

// Config describes how a workload mix is to be run.
type Config struct {
	// Name is the configuration identity.
	Name Name
	// UseRuntime enables the Dirigent runtime (fine control).
	UseRuntime bool
	// RuntimePartitioning enables the coarse (partition) controller; only
	// meaningful with UseRuntime.
	RuntimePartitioning bool
	// StaticBGMinFreq pins BG cores to the lowest frequency level.
	StaticBGMinFreq bool
	// Policy names the QoS policy driving the runtime (internal/policy
	// registry name); empty means the default Dirigent policy. Only
	// meaningful with UseRuntime.
	Policy string
}

// ByName returns the named configuration.
func ByName(n Name) (Config, error) {
	for _, c := range All() {
		if c.Name == n {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("config: unknown configuration %q", n)
}

// All returns the five configurations in the paper's presentation order.
func All() []Config {
	return []Config{
		// All cores at max frequency, free contention.
		{Name: Baseline},
		// FG cores at max, BG cores statically at 1.2 GHz.
		{Name: StaticFreq, StaticBGMinFreq: true},
		// Best static partition + best static BG frequency.
		{Name: StaticBoth},
		// Dirigent fine time scale control only (no partitioning).
		{Name: DirigentFreq, UseRuntime: true},
		// Full Dirigent: fine control + coarse cache partitioning.
		{Name: Dirigent, UseRuntime: true, RuntimePartitioning: true},
	}
}

// Names returns the configuration names in order.
func Names() []Name {
	all := All()
	out := make([]Name, len(all))
	for i, c := range all {
		out[i] = c.Name
	}
	return out
}
