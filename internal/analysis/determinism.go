package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// factWallclock marks a package that reads the wall clock or the global
// math/rand source (directly or through a module import). walltime uses
// it to catch a deterministic package laundering non-determinism through
// a helper package.
const factWallclock = "walltime.tainted"

// globalRandFuncs are the top-level math/rand readers of the unseeded
// global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true,
}

// walltime: the simulator is seed-deterministic; time.Now and the global
// math/rand source are banned from determinism-critical packages, as are
// imports of wall-clock-tainted module packages.
var walltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "no wall clock or global math/rand in deterministic packages",
	Run: func(p *Pass) error {
		tainted := false
		flag := p.Config.inScope("walltime", p.Pkg.Dir)
		inspectCalls(p, func(call *ast.CallExpr) {
			fn := p.Callee(call)
			switch {
			case isFunc(fn, "time", "Now"):
				tainted = true
				if flag {
					p.Reportf(call.Pos(), "time.Now in a seed-deterministic package; derive time from the simulation clock")
				}
			case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" && globalRandFuncs[fn.Name()]:
				// Only the package-level readers touch the global
				// source; methods on a seeded *rand.Rand have a
				// receiver and are fine.
				if fn.Type().(*types.Signature).Recv() == nil {
					tainted = true
					if flag {
						p.Reportf(call.Pos(), "global math/rand source in a seed-deterministic package; use a seeded *rand.Rand")
					}
				}
			}
		})
		// Fact propagation: importing a tainted module package taints the
		// importer (and is itself a finding in deterministic scope — a
		// wall-clock read hidden behind a helper is still a wall-clock
		// read).
		for _, f := range p.Pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if _, ok := p.Fact(path, factWallclock); !ok {
					continue
				}
				tainted = true
				if flag {
					p.Reportf(imp.Pos(), "import of wall-clock-tainted package %s in a seed-deterministic package", path)
				}
			}
		}
		if tainted {
			p.SetFact(factWallclock, true)
		}
		return nil
	},
}

// maprange: Go randomizes map iteration order, so ranging over a map in
// a deterministic package must not feed results or telemetry directly.
// The canonical collect-keys-then-sort idiom (a body that only appends
// the key to a slice) is recognized and allowed; everything else needs
// sorted keys or an explicit lint:ignore with a reason.
var maprangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc:  "map iteration in deterministic packages must go through sorted keys",
	Run: func(p *Pass) error {
		if !p.Config.inScope("maprange", p.Pkg.Dir) {
			return nil
		}
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if isKeyCollectLoop(rng) {
					return true
				}
				p.Reportf(rng.Pos(), "map iteration order is randomized; collect and sort the keys first (or lint:ignore with why order cannot reach results)")
				return true
			})
		}
		return nil
	},
}

// isKeyCollectLoop matches `for k := range m { keys = append(keys, k) }`,
// the first half of the sorted-iteration idiom.
func isKeyCollectLoop(rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rng.Value != nil {
		return false
	}
	if len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// nondetsched: goroutines, selects and sync.Map introduce scheduling
// non-determinism; they are banned from deterministic packages outside
// the explicit fan-out allowlist (experiment, load, server, telemetry).
var nondetschedAnalyzer = &Analyzer{
	Name: "nondetsched",
	Doc:  "no goroutines, selects or sync.Map in deterministic packages",
	Run: func(p *Pass) error {
		if !p.Config.inScope("nondetsched", p.Pkg.Dir) {
			return nil
		}
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					p.Reportf(n.Pos(), "go statement in a deterministic package; goroutine interleaving is not seed-reproducible")
				case *ast.SelectStmt:
					p.Reportf(n.Pos(), "select in a deterministic package; ready-case choice is randomized")
				}
				return true
			})
		}
		// sync.Map declarations (vars, fields, params): its iteration and
		// interleaving semantics are unordered by construction. The Defs
		// map iterates in random order, so collect and sort by position
		// before reporting.
		var ids []*ast.Ident
		//lint:ignore maprange ids are sorted by position before reporting
		for id, obj := range p.Pkg.Info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || v.Pkg() != p.Pkg.Types {
				continue
			}
			if containsSyncType(v.Type(), map[string]bool{"Map": true}, nil) {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Pos() < ids[j].Pos() })
		for _, id := range ids {
			p.Reportf(id.Pos(), "sync.Map in a deterministic package; use an ordinary map with sorted iteration")
		}
		return nil
	},
}

// containsSyncType reports whether t is or (through structs and arrays)
// contains one of the named types from package sync.
func containsSyncType(t types.Type, names map[string]bool, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && names[obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsSyncType(u.Field(i).Type(), names, seen) {
				return true
			}
		}
	case *types.Array:
		return containsSyncType(u.Elem(), names, seen)
	}
	return false
}
