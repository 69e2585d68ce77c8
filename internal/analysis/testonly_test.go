package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testOnlyExempt lists the internal packages whose declarations may be
// called only from tests: golden.Check is a test helper by design.
var testOnlyExempt = map[string]bool{
	"internal/golden": true,
}

// testOnlyKeep lists the methods no program calls that stay anyway, each
// with the test that needs it: a test in another package compares the
// method with a value a program computes, or a golden pins its value, and
// no program path exposes the same state. The key is the census name, the
// value the needing test as package-dir.TestName.
var testOnlyKeep = map[string]string{
	"cache.LLC.ClassWays":                 "internal/policy.TestControllersDeriveFromClass",
	"machine.Machine.FreqResidency":       "internal/experiment.TestAggregatorMatchesGroundTruth",
	"perf.Counters.Core":                  "internal/machine.TestStepEnginesEquivalent",
	"telemetry.Aggregator.Quanta":         "internal/machine.TestStepEnginesEquivalent",
	"telemetry.Aggregator.Instructions":   "internal/machine.TestStepEnginesEquivalent",
	"telemetry.Aggregator.LLCMisses":      "internal/machine.TestStepEnginesEquivalent",
	"policy.CoarseController.ConvergedAt": "internal/experiment.TestAggregatorMatchesGroundTruth",
	"core.Runtime.Predictors":             "internal/server.TestCreateMachineClass",
	"core.Predictor.Profile":              "internal/server.TestCreateMachineClass",
}

// TestNoTestOnlyDeclarations keeps test-only code out of the shipped
// packages. Under internal/, every package-level func, var, const or type
// and every method must be named by a non-test file of the module,
// perfbench's included, and every unexported struct field must be read
// by one. A declaration only tests use belongs in the _test.go file that
// uses it, or nowhere; the methods in testOnlyKeep are the exceptions,
// and each must stay uncalled by programs and called by its test.
func TestNoTestOnlyDeclarations(t *testing.T) {
	unused, err := testOnlyDeclarations("../..")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, u := range unused {
		named[u.name] = true
		if testOnlyKeep[u.name] == "" {
			verb := "referenced"
			if u.field {
				verb = "read"
			}
			t.Errorf("%s: %s is %s by no non-test file; delete it, or move it into the _test.go file that uses it", u.pos, u.name, verb)
		}
	}
	for name, test := range testOnlyKeep {
		if !named[name] {
			t.Errorf("keep-list entry %s is called by a program; drop it from testOnlyKeep", name)
		}
		dir, fn, _ := strings.Cut(test, ".")
		selectors, err := testSelectors(filepath.Join("../..", dir), fn)
		if err != nil {
			t.Fatal(err)
		}
		if method := name[strings.LastIndex(name, ".")+1:]; !slices.Contains(selectors, method) {
			t.Errorf("keep-list entry %s: %s does not call %s; drop the entry or name the test that needs it", name, test, method)
		}
	}
}

// TestCensusFixture runs the census over the analysis fixture module,
// whose internal/census package seeds each edge of the method and field
// rules, and requires exactly the names it seeds.
func TestCensusFixture(t *testing.T) {
	unused, err := testOnlyDeclarations("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u.pos+" "+u.name)
	}
	want := []string{
		"internal/census/census.go:11 census.Ledger.written",
		"internal/census/census.go:12 census.Ledger.added",
		"internal/census/census.go:13 census.Ledger.bumped",
		"internal/census/census.go:21 census.Ledger.TestOnly",
		"internal/hasdoc/hasdoc.go:6 hasdoc.V",
		"internal/nodoc/nodoc.go:4 nodoc.V",
	}
	if !slices.Equal(got, want) {
		t.Errorf("census over the fixture:\n got %q\nwant %q", got, want)
	}
}

// unusedDecl is one declaration no non-test file names, or one field no
// non-test file reads.
type unusedDecl struct {
	pos   string // module-root-relative file:line
	name  string // package.Name, package.Type.Method or package.Type.field
	field bool
}

// testOnlyDeclarations loads the module under root without its test files
// (the loader also walks perfbench/, which imports internal packages) and
// returns, in source order, what under internal/ nothing uses:
//   - package-level declarations and methods that no file names outside
//     the declaration itself; a ·name in the package's assembly counts. A
//     method whose name belongs to an interface its receiver type (or a
//     pointer to it) implements is exempt, since a call through the
//     interface names the interface's method. The interfaces counted are
//     the named ones of the module and of the packages it imports, and
//     the interface literals the module writes.
//   - unexported struct fields that no file reads. Being assigned (with =
//     or op=, or ++/--), directly or through an index, and being a
//     composite-literal key are writes; a <Type>_<field> operand in the
//     package's assembly (go_asm.h's naming) is a read.
//
// The census is taken for linux/amd64, the platform the goldens are
// pinned on, so it reads the same on every host.
func testOnlyDeclarations(root string) ([]unusedDecl, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	l.ctxt.GOOS, l.ctxt.GOARCH = "linux", "amd64"
	pkgs, err := l.loadModule()
	if err != nil {
		return nil, err
	}

	// span is a declaration's extent, within which uses are self-references.
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{}
	names := map[types.Object]string{}
	used := map[types.Object]bool{}
	var order []types.Object
	declare := func(obj types.Object, name string, n ast.Node) {
		if obj == nil || obj.Name() == "_" || obj.Name() == "init" {
			return
		}
		decls[obj] = span{n.Pos(), n.End()}
		names[obj] = obj.Pkg().Name() + "." + name
		order = append(order, obj)
	}
	isField := func(obj types.Object) bool { v, ok := obj.(*types.Var); return ok && v.IsField() }

	ifaces := interfaces(pkgs)
	for _, pkg := range pkgs {
		symbols, idents, err := asmReferences(l, pkg)
		if err != nil {
			return nil, err
		}
		for _, name := range symbols {
			if obj := pkg.Types.Scope().Lookup(name); obj != nil {
				used[obj] = true
			}
		}
		if !strings.HasPrefix(pkg.Dir, "internal/") || testOnlyExempt[pkg.Dir] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					recv := obj.Type().(*types.Signature).Recv()
					if recv == nil {
						declare(obj, obj.Name(), d)
						continue
					}
					named, _ := recv.Type().(*types.Named)
					if p, ok := recv.Type().(*types.Pointer); ok {
						named, _ = p.Elem().(*types.Named)
					}
					if !implementsAny(named, obj.Name(), ifaces) {
						declare(obj, named.Obj().Name()+"."+obj.Name(), d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(pkg.Info.Defs[s.Name], s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(pkg.Info.Defs[id], id.Name, s)
							}
						}
					}
				}
			}
			// Unexported fields, named after the type that declares them;
			// the assembly reads a field of T as T_field.
			owner := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owner[st] = n.Name.Name
					}
				case *ast.StructType:
					typ := owner[n]
					if typ == "" {
						typ = "struct"
					}
					for _, fld := range n.Fields.List {
						for _, id := range fld.Names {
							if obj := pkg.Info.Defs[id]; !obj.Exported() {
								declare(obj, typ+"."+id.Name, id)
								used[obj] = idents[typ+"_"+id.Name]
							}
						}
					}
				}
				return true
			})
		}
	}

	for _, pkg := range pkgs {
		writes := fieldWrites(pkg)
		for id, obj := range pkg.Info.Uses {
			sp, ok := decls[obj]
			if ok && (id.Pos() < sp.pos || id.Pos() >= sp.end) && !(isField(obj) && writes[id]) {
				used[obj] = true
			}
		}
	}

	var out []unusedDecl
	slices.SortStableFunc(order, func(a, b types.Object) int { return int(a.Pos() - b.Pos()) })
	for _, obj := range order {
		if used[obj] {
			continue
		}
		p := l.fset.Position(obj.Pos())
		rel, err := filepath.Rel(l.root, p.Filename)
		if err != nil {
			return nil, err
		}
		out = append(out, unusedDecl{fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line), names[obj], isField(obj)})
	}
	return out, nil
}

// interfaces collects the method-set interfaces the census exempts
// methods by: every interface type expression of the module (named
// declarations and literals alike) and every named interface of the
// packages the module imports.
func interfaces(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for expr, tv := range pkg.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok && tv.IsType() {
				if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.IsMethodSet() {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Types.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					out = append(out, it)
				}
			}
		}
	}
	return out
}

// implementsAny reports whether named or *named implements an interface
// that has a method called method.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// fieldWrites returns the field selectors and composite-literal keys that
// the package writes rather than reads: the target of an assignment (= or
// op=) or of ++/--, directly or through an index, and a key of a
// composite literal.
func fieldWrites(pkg *Package) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				writes[x.Sel] = true
			}
			return
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			}
			return true
		})
	}
	return writes
}

// asmSymbolRE matches a package-local symbol operand in Go assembly:
// ·name(SB) or ·name+offset(SB).
var asmSymbolRE = regexp.MustCompile(`·(\w+)(?:[+-]\d+)?\(SB\)`)

// asmIdentRE matches an identifier in Go assembly, such as go_asm.h's
// Type_field offsets.
var asmIdentRE = regexp.MustCompile(`\b[A-Za-z_]\w*\b`)

// asmReferences returns what the package's assembly files (as the
// loader's build context selects them) use as operands: the package-local
// symbols, and the set of every other identifier. A TEXT, DATA or GLOBL
// line defines its first symbol rather than using it.
func asmReferences(l *loader, pkg *Package) ([]string, map[string]bool, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(pkg.Dir))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	var symbols []string
	idents := map[string]bool{}
	for _, name := range bp.SFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			matches := asmSymbolRE.FindAllStringSubmatch(line, -1)
			for i, m := range matches {
				if i == 0 && (strings.HasPrefix(line, "TEXT") || strings.HasPrefix(line, "DATA") || strings.HasPrefix(line, "GLOBL")) {
					continue
				}
				symbols = append(symbols, m[1])
			}
			for _, id := range asmIdentRE.FindAllString(asmSymbolRE.ReplaceAllString(line, ""), -1) {
				idents[id] = true
			}
		}
	}
	return symbols, idents, nil
}

// testSelectors returns the selector names that the body of test fn, in
// one of dir's test files, uses.
func testSelectors(dir, fn string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						names = append(names, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	return names, nil
}
