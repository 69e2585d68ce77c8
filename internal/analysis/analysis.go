// Package analysis is the repo's static-analysis engine: a stdlib-only
// mini driver (go/parser + go/types + a recursive source importer) that
// type-checks every package in the module and runs a registry of
// analyzers with full type information. It exists because the regression
// story — the seed-deterministic goldens, TestServedDeterminism, the
// scenario suite — rests on invariants (no wall clock, no unseeded
// randomness, no order-dependent map iteration, no goroutine scheduling
// in the Step path) that conventions alone cannot enforce.
//
// The engine supports per-package fact passing between analyzers (used to
// propagate wall-clock taint across the import graph), line-level
// suppression via "//lint:ignore <check> <reason>" directives, and text,
// JSON and Markdown reporters. cmd/dirigent-lint is a thin CLI over it.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one analyzer diagnostic. File is module-root-relative and
// slash-separated; package-level findings (pkgdoc) carry Line 0.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
	Check   string `json:"check"`
	Package string `json:"package"`
	Message string `json:"msg"`
}

// Pos renders the finding position the way go tools do: file:line:col,
// dropping the zero parts.
func (f Finding) Pos() string {
	switch {
	case f.Line == 0:
		return f.File
	case f.Col == 0:
		return fmt.Sprintf("%s:%d", f.File, f.Line)
	default:
		return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
	}
}

// An Analyzer is one registered check. Run inspects a single type-checked
// package through its Pass and reports findings; it may also record facts
// for packages that import this one.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one package: the syntax, the type
// information, the engine config, and the fact store shared with the
// analyzers that ran on this package's imports.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Config   *Config

	facts    *factStore
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:    p.Pkg.relFile(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Analyzer.Name,
		Package: p.Pkg.Dir,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportPackage records a package-level finding (no line), e.g. a missing
// package doc comment.
func (p *Pass) ReportPackage(format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		File:    p.Pkg.Dir,
		Check:   p.Analyzer.Name,
		Package: p.Pkg.Dir,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// Callee resolves the called package-level function or method of a call
// expression via type information, or nil for conversions, builtins,
// function-typed variables and indirect calls. Unlike the old AST-only
// heuristic this survives import aliasing and local shadowing.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// SetFact records a fact about the package under analysis, visible to
// analyzers running later on packages that import it.
func (p *Pass) SetFact(key string, v any) {
	p.facts.set(p.Pkg.Path, key, v)
}

// Fact reads a fact previously recorded for pkgPath (typically one of
// this package's imports, which the driver has already analyzed).
func (p *Pass) Fact(pkgPath, key string) (any, bool) {
	return p.facts.get(pkgPath, key)
}

// factStore holds per-package facts keyed by import path. The driver
// analyzes packages in dependency order, so a pass can rely on facts from
// everything it imports.
type factStore struct {
	byPkg map[string]map[string]any
}

func newFactStore() *factStore {
	return &factStore{byPkg: map[string]map[string]any{}}
}

func (s *factStore) set(pkg, key string, v any) {
	m := s.byPkg[pkg]
	if m == nil {
		m = map[string]any{}
		s.byPkg[pkg] = m
	}
	m[key] = v
}

func (s *factStore) get(pkg, key string) (any, bool) {
	v, ok := s.byPkg[pkg][key]
	return v, ok
}

// Config scopes the determinism checks. Package sets are lists of
// module-root-relative directory patterns: an entry matches the directory
// itself and, unless it is ".", everything below it.
type Config struct {
	// Deterministic lists the determinism-critical package directories:
	// walltime, maprange and nondetsched apply inside this set.
	Deterministic []string
	// Allow exempts directories from a single check, keyed by check
	// name — e.g. internal/server enforces real-time deadlines by design,
	// so it sits on the walltime allowlist.
	Allow map[string][]string
}

// DefaultConfig is the repo's policy: everything under internal/, the
// root facade, and the deterministic CLIs (dirigent-sim, dirigent-bench)
// are determinism-critical. The load generator and the serving layer read
// the wall clock by design; the experiment/load/server/telemetry fan-out
// paths may use goroutines and selects.
func DefaultConfig() *Config {
	return &Config{
		Deterministic: []string{
			".",
			"internal",
			"cmd/dirigent-sim",
			"cmd/dirigent-bench",
		},
		Allow: map[string][]string{
			"walltime": {
				"internal/load",   // open-loop replay schedules in wall time
				"internal/server", // serving deadlines are real time
			},
			"nondetsched": {
				"internal/experiment", // sweep fan-out (DIRIGENT_MAX_PARALLEL)
				"internal/load",       // concurrent open-loop dispatch
				"internal/server",     // request handling is concurrent
				"internal/telemetry",  // sink fan-out
			},
			"maprange": {
				"internal/server", // non-deterministic layer by design
			},
		},
	}
}

// matchDir reports whether dir (slash-separated, "." for the module root)
// is covered by pattern.
func matchDir(dir, pattern string) bool {
	if pattern == "." {
		return dir == "."
	}
	return dir == pattern || strings.HasPrefix(dir, pattern+"/")
}

func matchAny(dir string, patterns []string) bool {
	for _, p := range patterns {
		if matchDir(dir, p) {
			return true
		}
	}
	return false
}

// Deterministic reports whether the package directory is in the
// determinism-critical set.
func (c *Config) deterministic(dir string) bool {
	return matchAny(dir, c.Deterministic)
}

// inScope reports whether check applies to dir: the directory must be
// determinism-critical and not on the check's allowlist.
func (c *Config) inScope(check, dir string) bool {
	return c.deterministic(dir) && !matchAny(dir, c.Allow[check])
}

// Analyzers returns the full registry in its stable run order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		pkgdocAnalyzer,
		errorsnewAnalyzer,
		errstyleAnalyzer,
		walltimeAnalyzer,
		maprangeAnalyzer,
		nondetschedAnalyzer,
		errcheckAnalyzer,
		floateqAnalyzer,
		copylocksAnalyzer,
	}
}

// ByName resolves a comma-separated -checks list against the registry.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have %s)", n, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, errors.New("empty -checks list")
	}
	return out, nil
}

// Names lists the registered analyzer names in run order.
func Names() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}
