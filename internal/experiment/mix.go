// Package experiment is the evaluation harness: it defines the paper's
// workload mixes (§5.1), runs them under the five configurations (§5.4),
// and regenerates every table and figure of the evaluation section.
package experiment

import (
	"fmt"
	"hash/fnv"
	"strings"

	"dirigent/internal/sched"
	"dirigent/internal/workload"
)

// Mix is one workload combination: foreground benchmark names (repeated
// names give concurrent copies) and background worker specs ("bwaves" for a
// plain worker, "lbm+namd" for a rotate pair). FG tasks occupy the first
// cores, BG workers the rest; FG+BG must equal the core count (6).
type Mix struct {
	// Name identifies the mix in reports, e.g. "ferret rs" or
	// "bodytrack x2 libquantum soplex".
	Name string
	// FG lists foreground benchmark names.
	FG []string
	// BG lists background worker specs.
	BG []string
}

// Validate resolves all benchmark names.
func (m Mix) Validate() error {
	if len(m.FG) == 0 {
		return fmt.Errorf("experiment: mix %q has no FG tasks", m.Name)
	}
	for _, n := range m.FG {
		b, err := workload.ByName(n)
		if err != nil {
			return err
		}
		if b.Kind != workload.Foreground {
			return fmt.Errorf("experiment: mix %q: %s is not a FG benchmark", m.Name, n)
		}
	}
	for _, s := range m.BG {
		if _, err := ParseBGSpec(s); err != nil {
			return err
		}
	}
	return nil
}

// Seed derives a stable per-mix random seed so every configuration of a
// mix sees identical workload noise streams.
func (m Mix) Seed() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(m.Name))
	return h.Sum64()
}

// BGSpecs resolves the BG spec strings into scheduler specs.
func (m Mix) BGSpecs() ([]sched.BGSpec, error) {
	out := make([]sched.BGSpec, len(m.BG))
	for i, s := range m.BG {
		spec, err := ParseBGSpec(s)
		if err != nil {
			return nil, err
		}
		out[i] = spec
	}
	return out, nil
}

// FGBenchmarks resolves the FG names.
func (m Mix) FGBenchmarks() ([]*workload.Benchmark, error) {
	out := make([]*workload.Benchmark, len(m.FG))
	for i, n := range m.FG {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// ParseBGSpec parses one BG worker spec: a background benchmark name
// ("bwaves") or a rotate pair of them ("lbm+namd").
func ParseBGSpec(s string) (sched.BGSpec, error) {
	if a, b, ok := strings.Cut(s, "+"); ok {
		ba, err := bgBenchmark(a)
		if err != nil {
			return sched.BGSpec{}, err
		}
		bb, err := bgBenchmark(b)
		if err != nil {
			return sched.BGSpec{}, err
		}
		return sched.BGSpec{Pair: [2]*workload.Benchmark{ba, bb}}, nil
	}
	b, err := bgBenchmark(s)
	if err != nil {
		return sched.BGSpec{}, err
	}
	return sched.BGSpec{Bench: b}, nil
}

// bgBenchmark resolves a background benchmark name.
func bgBenchmark(name string) (*workload.Benchmark, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if b.Kind != workload.Background {
		return nil, fmt.Errorf("experiment: %s is not a BG benchmark", name)
	}
	return b, nil
}

// repeat returns n copies of s.
func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// fgNames returns the catalog's FG benchmark names in Table 1 order.
func fgNames() []string {
	var out []string
	for _, b := range workload.FG() {
		out = append(out, b.Name)
	}
	return out
}

// SingleBGMixes returns the 15 mixes of Fig. 9a: each FG benchmark against
// five copies of each standalone BG benchmark (bwaves, pca, rs).
func SingleBGMixes() []Mix {
	var out []Mix
	for _, fg := range fgNames() {
		for _, bg := range []string{"bwaves", "pca", "rs"} {
			out = append(out, Mix{
				Name: fg + " " + bg,
				FG:   []string{fg},
				BG:   repeat(bg, 5),
			})
		}
	}
	return out
}

// RotateBGMixes returns the 20 mixes of Fig. 9b: each FG benchmark against
// five rotate workers of each pair.
func RotateBGMixes() []Mix {
	var out []Mix
	for _, fg := range fgNames() {
		for _, pair := range workload.RotatePairs() {
			spec := pair[0] + "+" + pair[1]
			out = append(out, Mix{
				Name: fg + " " + pair[0] + " " + pair[1],
				FG:   []string{fg},
				BG:   repeat(spec, 5),
			})
		}
	}
	return out
}

// MultiFGMixes returns the 15 mixes of Fig. 9c: five FG/BG pairings, each
// with 1, 2, and 3 concurrent copies of the FG task (total tasks always 6).
func MultiFGMixes() []Mix {
	pairs := []struct {
		fg string
		bg string
	}{
		{"bodytrack", "libquantum+soplex"},
		{"ferret", "bwaves"},
		{"fluidanimate", "lbm+soplex"},
		{"raytrace", "rs"},
		{"streamcluster", "lbm+namd"},
	}
	var out []Mix
	for _, p := range pairs {
		for n := 1; n <= 3; n++ {
			bgName := strings.ReplaceAll(p.bg, "+", " ")
			out = append(out, Mix{
				Name: fmt.Sprintf("%s x%d %s", p.fg, n, bgName),
				FG:   repeat(p.fg, n),
				BG:   repeat(p.bg, 6-n),
			})
		}
	}
	return out
}

// AllSingleFGMixes returns the 35 single-FG mixes (Fig. 7, Fig. 10).
func AllSingleFGMixes() []Mix {
	return append(SingleBGMixes(), RotateBGMixes()...)
}
