package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testOnlyExempt lists the internal packages whose declarations may be
// called only from tests: golden.Check is a test helper by design.
var testOnlyExempt = map[string]bool{
	"internal/golden": true,
}

// TestNoTestOnlyDeclarations keeps test-only code out of the shipped
// packages: every package-level func, var, const or type under internal/
// must be referenced by a non-test file of the module, perfbench's
// included. A declaration only tests call belongs in the _test.go file
// that uses it, or nowhere.
func TestNoTestOnlyDeclarations(t *testing.T) {
	unused, err := testOnlyDeclarations("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s: %s is referenced by no non-test file; delete it, or move it into the _test.go file that uses it", u.pos, u.name)
	}
}

// unusedDecl is one package-level declaration no non-test file references.
type unusedDecl struct {
	pos  string // module-root-relative file:line
	name string // package.Name
}

// testOnlyDeclarations loads the module under root without its test files
// (the loader also walks perfbench/, which imports internal packages) and
// returns the package-level declarations under internal/ that nothing
// references, in source order. A use inside the declaration itself (a
// recursive call, a self-referential type) does not count; a ·name in the
// package's assembly does. The census is taken for linux/amd64, the
// platform the goldens are pinned on, so it reads the same on every host.
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
	var order []types.Object
	declare := func(pkg *Package, id *ast.Ident, n ast.Node) {
		if id.Name == "_" || id.Name == "init" {
			return
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			decls[obj] = span{n.Pos(), n.End()}
			order = append(order, obj)
		}
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Dir, "internal/") || testOnlyExempt[pkg.Dir] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(pkg, d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(pkg, s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(pkg, id, s)
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if sp, ok := decls[obj]; ok && (id.Pos() < sp.pos || id.Pos() >= sp.end) {
				used[obj] = true
			}
		}
		names, err := asmReferences(l, pkg)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			if obj := pkg.Types.Scope().Lookup(name); obj != nil {
				used[obj] = true
			}
		}
	}

	var out []unusedDecl
	for _, obj := range order {
		if used[obj] {
			continue
		}
		p := l.fset.Position(obj.Pos())
		rel, err := filepath.Rel(l.root, p.Filename)
		if err != nil {
			return nil, err
		}
		out = append(out, unusedDecl{
			pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line),
			name: obj.Pkg().Name() + "." + obj.Name(),
		})
	}
	return out, nil
}

// asmSymbolRE matches a package-local symbol operand in Go assembly:
// ·name(SB) or ·name+offset(SB).
var asmSymbolRE = regexp.MustCompile(`·(\w+)(?:[+-]\d+)?\(SB\)`)

// asmReferences returns the package-local symbols the package's assembly
// files (as the loader's build context selects them) use as operands. A
// TEXT, DATA or GLOBL line defines its first symbol rather than using it.
func asmReferences(l *loader, pkg *Package) ([]string, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(pkg.Dir))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, name := range bp.SFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
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
				names = append(names, m[1])
			}
		}
	}
	return names, nil
}
