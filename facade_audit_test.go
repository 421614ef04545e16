package mstadvice_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mstadvice"
)

// facadeFor maps every internal entry-point symbol named in README's
// paper → code map onto the facade export that reaches it. The values
// are real references, so a facade symbol that disappears breaks the
// compile, and TestFacadeCoversPaperMap breaks when a map row names a
// symbol missing here — together they pin the README against facade
// drift in both directions.
var facadeFor = map[string]any{
	"trivial.Scheme.Advise":        mstadvice.Trivial,
	"lowerbound.BuildGn":           mstadvice.BuildGn,
	"lowerbound.NewFamily":         mstadvice.NewLowerBoundFamily,
	"oneround.Scheme.Advise":       mstadvice.OneRound,
	"core.BuildAdvice":             mstadvice.MSTProblem().Encode,
	"core.Scheme.NewNode":          mstadvice.ConstantAdvice,
	"core.NewSchedule":             mstadvice.NewSchedule,
	"core.BuildAdviceDetailOpt":    mstadvice.MSTProblem().Encode,
	"boruvka.DecomposeOpt":         mstadvice.DecomposeOpt,
	"sim.Network.Run":              mstadvice.Run,
	"sim.Network.RunAsync":         mstadvice.RunOptions{Async: true},
	"sim.Options":                  mstadvice.RunOptions{},
	"advice.Run":                   mstadvice.Run,
	"problem.Register":             mstadvice.RegisterProblem,
	"problem.BySchemeName":         mstadvice.SchemeByName,
	"mstp.Problem.Encode":          mstadvice.MSTProblem,
	"topo.Problem.Encode":          mstadvice.TopologyRecognition,
	"topo.Flood.Advise":            mstadvice.TopoFlood,
	"topo.NewFamily":               mstadvice.NewTopoLowerBoundFamily,
	"boruvka.Decomposition.FragOf": (*mstadvice.Decomposition).FragOf,
	"hier.Encode":                  mstadvice.HierScheme,
	"hier.Scheme.NewNode":          mstadvice.HierScheme,
	"gen.BuildSeeded":              mstadvice.GenSeeded,
	"graph.FromEdgeList":           mstadvice.GenSeeded,    // the seeded build path constructs through it
	"par.Ranges":                   mstadvice.DecomposeOpt, // the phase kernel's min-edge scans run on it
	"boruvka.Decomposition.Run":    (*mstadvice.Decomposition).Run,
}

// symbolRe matches backtick-quoted internal symbols of the form
// pkg.Symbol or pkg.Symbol{...} inside a map row. Package paths
// (`internal/...`) and bare scheme names (`Trivial`) don't match.
var symbolRe = regexp.MustCompile("`([a-z][a-z0-9]*\\.[A-Z][A-Za-z0-9.]*)[^`]*`")

// TestFacadeCoversPaperMap parses README's paper → code map and
// requires every internal entry-point symbol a row names to be listed
// in facadeFor, i.e. reachable through the public facade. Adding a map
// row with a new entry point forces a facade export (or an explicit
// mapping to an existing one) in the same change.
func TestFacadeCoversPaperMap(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := paperMapRows(t, string(readme))
	checked := 0
	for _, row := range rows {
		cells := strings.Split(row, "|")
		if len(cells) < 5 {
			t.Fatalf("malformed map row: %s", row)
		}
		// Column 2 (package) and column 3 (entry point) both name code;
		// the "pinned by" column names tests, not facade symbols.
		for _, cell := range cells[2:4] {
			for _, m := range symbolRe.FindAllStringSubmatch(cell, -1) {
				sym := m[1]
				checked++
				if _, ok := facadeFor[sym]; !ok {
					t.Errorf("README map names %s but facade_audit_test.go has no facade mapping for it", sym)
				}
			}
		}
	}
	if checked < len(facadeFor) {
		t.Errorf("README map names %d symbols but facadeFor maps %d — stale entries?", checked, len(facadeFor))
	}
}

// paperMapRows returns the body rows of the paper → code map table.
func paperMapRows(t *testing.T, readme string) []string {
	t.Helper()
	idx := strings.Index(readme, "| Paper | Package | Entry point | Pinned by |")
	if idx < 0 {
		t.Fatal("README.md no longer contains the paper → code map header")
	}
	var rows []string
	for _, line := range strings.Split(readme[idx:], "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows = append(rows, line)
	}
	if len(rows) < 8 {
		t.Fatalf("paper → code map has only %d rows", len(rows))
	}
	return rows
}

// TestFacadeExportsAreCalled is the reverse of TestFacadeCoversPaperMap:
// every exported identifier of mstadvice.go must be named by a Go file
// outside it (an example, a command or a root test; facadeFor counts,
// and in-package tests name it bare) or by the signature of an exported
// facade function that is itself named. An export that nothing calls
// fails the test.
func TestFacadeExportsAreCalled(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "mstadvice.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	sigs := map[string][]string{} // exported function -> identifiers in its signature
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						sigs[d.Name.Name] = append(sigs[d.Name.Name], id.Name)
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							exported = append(exported, id.Name)
						}
					}
				}
			}
		}
	}
	named := map[string]bool{}
	for _, path := range repoGoFiles(t) {
		// bench/ is a module of its own and never imports the facade.
		if path == "mstadvice.go" || strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "mstadvice" {
			// A bare identifier this file does not declare resolves to
			// the package scope: a facade name or a predeclared one.
			for _, id := range f.Unresolved {
				named[id.Name] = true
			}
			continue
		}
		for _, imp := range f.Imports {
			if imp.Path.Value != `"mstadvice"` {
				continue
			}
			pkg := "mstadvice"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
						named[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, ids := range sigs {
			for _, id := range ids {
				if named[fn] && !named[id] {
					named[id], changed = true, true
				}
			}
		}
	}
	var uncalled []string
	for _, name := range exported {
		if !named[name] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d of %d facade exports are named by no example, command or root test, nor by a named facade function's signature; use or delete them:\n%s",
			len(uncalled), len(exported), strings.Join(uncalled, "\n"))
	}
}

// repoGoFiles returns every Go file of the repository, bench/'s module
// included, outside testdata and hidden directories.
func repoGoFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// auditExempt is the test-support package that only tests import; the
// internal audit skips it.
const auditExempt = "mstadvice/internal/reference"

// TestInternalExportsAreCalled holds internal/ to the facade's rule:
// every exported func, method, type, var and const that a non-test file
// under internal/ declares must be named by non-test code — the facade,
// a command, an example, bench/ or internal/ itself — other than its
// own declaration and its methods' receivers. Names resolve with
// go/types, so a `.Len` selector counts only for the Len it reaches. A
// method also counts when it implements a method of an interface,
// because a call through the interface names the interface's method.
// internal/reference is the one exemption.
func TestInternalExportsAreCalled(t *testing.T) {
	fset := token.NewFileSet()
	im := &sourceImporter{
		fset: fset,
		srcs: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{},
		std:  importer.Default(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, path := range repoGoFiles(t) {
		dir, name := filepath.Split(path)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(filepath.Clean(dir), name) // build tags
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ip := "mstadvice"
		if d := filepath.ToSlash(filepath.Clean(dir)); d != "." {
			ip += "/" + d // bench/'s module path is mstadvice/bench
		}
		im.srcs[ip] = append(im.srcs[ip], f)
	}
	for ip := range im.srcs {
		if _, err := im.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	info := im.info

	// A declaration does not call itself: skip uses inside the used
	// object's own declaration and the receiver types of methods.
	type span struct{ pos, end token.Pos }
	own := map[types.Object]span{}
	recv := map[*ast.Ident]bool{}
	for _, files := range im.srcs {
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own[info.Defs[d.Name]] = span{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							own[info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								own[info.Defs[id]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		obj = originOf(obj)
		if s, ok := own[obj]; recv[id] || ok && s.pos <= id.Pos() && id.Pos() < s.end {
			continue
		}
		used[obj] = true
	}

	// Every interface in reach: the module's and its imports' named
	// interfaces, error, the interface{ Unwrap() error } through which
	// errors.Is and errors.As unwrap (the errors package does not name
	// it), and every interface the module's code spells.
	var ifaces []*types.Interface
	inReach := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !inReach[it] {
			inReach[it] = true
			ifaces = append(ifaces, it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	addIface(errType)
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	addIface(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn) {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range im.pkgs {
		visit(p)
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	for _, p := range im.pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || isGeneric(tn) {
				continue
			}
			for _, it := range ifaces {
				for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
					if !types.Implements(typ, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if obj, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name()); obj != nil {
							used[originOf(obj)] = true
						}
					}
					break
				}
			}
		}
	}

	var uncalled []string
	flag := func(obj types.Object, name string) {
		if obj.Exported() && !used[obj] {
			uncalled = append(uncalled, fmt.Sprintf("%s.%s (%s)", obj.Pkg().Path(), name, fset.Position(obj.Pos())))
		}
	}
	for ip, p := range im.pkgs {
		if !strings.HasPrefix(ip, "mstadvice/internal/") || ip == auditExempt || strings.HasPrefix(ip, auditExempt+"/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			flag(obj, name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						flag(named.Method(i), name+"."+named.Method(i).Name())
					}
				}
			}
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d exports under internal/ are named by no non-test code (the facade, cmd/, examples/, bench/ or internal/) and implement no interface method; move them into the tests that use them, or delete them:\n%s",
			len(uncalled), strings.Join(uncalled, "\n"))
	}
}

// sourceImporter type-checks the repository's packages from their
// non-test files, so every package shares one types.Info and one object
// per declaration, and imports the standard library from export data.
type sourceImporter struct {
	fset *token.FileSet
	srcs map[string][]*ast.File // import path -> non-test files
	pkgs map[string]*types.Package
	std  types.Importer
	info *types.Info
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	files, ok := im.srcs[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

// originOf maps a method or field of an instantiated generic type back
// to its declaration.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isGeneric(tn *types.TypeName) bool {
	named, ok := tn.Type().(*types.Named)
	return ok && named.TypeParams().Len() > 0
}
