package machine

import (
	"fmt"
	"sort"
	"time"

	"dirigent/internal/cache"
	"dirigent/internal/mem"
)

// DefaultClass is the machine class every existing experiment runs on: the
// paper's 6-core Xeon E5-2618L v3, i.e. DefaultConfig.
const DefaultClass = "xeon-e5"

// Class is a named machine shape: a description plus a Config factory.
// Classes let scenarios and sweeps pick hardware declaratively while the
// machine itself stays a plain Config.
type Class struct {
	// Name is the registry key (lowercase, dash-separated).
	Name string
	// Description is a one-line summary for reports and docs.
	Description string
	// Config builds a fresh configuration for this class.
	Config func() Config
}

// classes is the built-in registry. Additions here automatically become
// valid scenario machine classes and ClassNames entries.
var classes = map[string]Class{
	DefaultClass: {
		Name:        DefaultClass,
		Description: "paper evaluation platform: 6 cores, 9 DVFS levels 1.2-2.0 GHz, 15 MB/20-way LLC, 22 GB/s",
		Config:      DefaultConfig,
	},
	"quad-low": {
		Name:        "quad-low",
		Description: "small 4-core part: 5 DVFS levels 1.0-1.8 GHz, 8 MB/16-way LLC, 12 GB/s",
		Config: func() Config {
			cfg := DefaultConfig()
			cfg.Cores = 4
			cfg.FreqLevelsGHz = []float64{1.0, 1.2, 1.4, 1.6, 1.8}
			cfg.Cache = cache.Config{Bytes: 8 << 20, Ways: 16}
			cfg.Memory = mem.Config{
				PeakBandwidth: 12e9,
				IdleLatency:   95 * time.Nanosecond,
				MaxStretch:    20,
			}
			return cfg
		},
	},
	"biglittle": {
		Name:        "biglittle",
		Description: "heterogeneous 2 big + 6 little cores (little at 0.75x clock, 0.6x IPC), 12 MB/16-way LLC, 18 GB/s",
		Config: func() Config {
			cfg := DefaultConfig()
			cfg.Cores = 8
			// Big cores first: the scheduler places FG streams on the
			// lowest cores, so latency-critical work lands on big cores
			// and the BG batch work shares the little cores.
			cfg.CoreSets = []CoreSet{
				{Count: 2},
				{Count: 6, FreqScale: 0.75, IPCScale: 0.6},
			}
			cfg.Cache = cache.Config{Bytes: 12 << 20, Ways: 16}
			cfg.Memory = mem.Config{
				PeakBandwidth: 18e9,
				IdleLatency:   90 * time.Nanosecond,
				MaxStretch:    20,
			}
			return cfg
		},
	},
	"dual-socket": {
		Name:        "dual-socket",
		Description: "2 sockets x 4 cores with per-socket 12 GB/s bandwidth pools, 20 MB/20-way LLC",
		Config: func() Config {
			cfg := DefaultConfig()
			cfg.Cores = 8
			cfg.CoreSets = []CoreSet{
				{Count: 4, Socket: 0},
				{Count: 4, Socket: 1},
			}
			cfg.Cache = cache.Config{Bytes: 20 << 20, Ways: 20}
			cfg.Memory = mem.Config{
				PeakBandwidth: 24e9, // aggregate, used only as the shared-pool fallback
				IdleLatency:   95 * time.Nanosecond,
				MaxStretch:    20,
				Sockets:       []mem.Socket{{PeakBandwidth: 12e9}, {PeakBandwidth: 12e9}},
			}
			return cfg
		},
	},
}

// ClassNames returns the registered class names, sorted.
func ClassNames() []string {
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupClass returns a class by name. The empty name means DefaultClass.
func LookupClass(name string) (Class, error) {
	if name == "" {
		name = DefaultClass
	}
	cl, ok := classes[name]
	if !ok {
		return Class{}, fmt.Errorf("machine: unknown class %q (valid: %v)", name, ClassNames())
	}
	return cl, nil
}

// ClassConfig returns a fresh Config for the named class ("" means the
// default xeon-e5). The default class is exactly DefaultConfig, so code
// that resolves "" through here behaves byte-identically to code that
// called DefaultConfig directly.
func ClassConfig(name string) (Config, error) {
	cl, err := LookupClass(name)
	if err != nil {
		return Config{}, err
	}
	return cl.Config(), nil
}
