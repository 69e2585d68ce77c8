package policy

import (
	"fmt"
	"sort"
	"strings"
)

// Registered policy names.
const (
	// NameDirigent is the paper's controller pair (fine DVFS/pause +
	// coarse LLC partitioning) — the default everywhere.
	NameDirigent = "dirigent"
	// NameRTGang is the RT-Gang-style one-gang-at-a-time scheduler.
	NameRTGang = "rtgang"
	// NameCORDLike is the CORD-style static allocator from decomposed
	// deadlines.
	NameCORDLike = "cordlike"
)

// Options carries the constructor parameters shared by registered
// policies. The Dirigent controllers' parameters are the §4.3 constants in
// fine.go and coarse.go.
type Options struct {
	// Partitioning enables Dirigent's LLC-way actuator, its coarse
	// controller; the binding must then carry distinct FG/BG classes.
	// CORDLike always partitions and RTGang never does.
	Partitioning bool
}

// Factory builds a fresh, un-bound policy instance.
type Factory func(o Options) Policy

// registry maps policy names to factories. Mutated only by Register during
// package initialization; read-only afterwards, so lookups need no lock.
var registry = map[string]Factory{}

// Register adds a named policy factory. Registration happens in package
// init; a duplicate name is a programming error and panics.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("policy: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Names returns the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Valid reports whether name is a registered policy.
func Valid(name string) bool {
	_, ok := registry[name]
	return ok
}

// New builds the named policy. The empty name resolves to NameDirigent so
// callers can thread an optional policy field straight through. An unknown
// name errors with the valid values listed — the server surfaces this
// message verbatim in its 400 responses.
func New(name string, o Options) (Policy, error) {
	if name == "" {
		name = NameDirigent
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(o), nil
}

func init() {
	Register(NameDirigent, func(o Options) Policy { return NewDirigent(o) })
	Register(NameRTGang, func(o Options) Policy { return NewRTGang() })
	Register(NameCORDLike, func(o Options) Policy { return NewCORDLike() })
}
