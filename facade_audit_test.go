package mstadvice_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	"trivial.Scheme.Advise":     mstadvice.Trivial,
	"lowerbound.BuildGn":        mstadvice.BuildGn,
	"lowerbound.NewFamily":      mstadvice.NewLowerBoundFamily,
	"oneround.Scheme.Advise":    mstadvice.OneRound,
	"core.BuildAdvice":          mstadvice.MSTProblem().Encode,
	"core.Scheme.NewNode":       mstadvice.ConstantAdvice,
	"core.NewSchedule":          mstadvice.NewSchedule,
	"core.BuildAdviceDetailOpt": mstadvice.MSTProblem().Encode,
	"boruvka.Decompose":         mstadvice.Decompose,
	"boruvka.DecomposeOpt":      mstadvice.DecomposeOpt,
	"sim.Network.Run":           mstadvice.Run,
	"sim.Network.RunAsync":      mstadvice.RunOptions{Async: true},
	"sim.Options":               mstadvice.RunOptions{},
	"advice.Run":                mstadvice.Run,
	"problem.Register":          mstadvice.RegisterProblem,
	"problem.BySchemeName":      mstadvice.SchemeByName,
	"mstp.Problem.Encode":       mstadvice.MSTProblem,
	"topo.Problem.Encode":       mstadvice.TopologyRecognition,
	"topo.Flood.Advise":         mstadvice.TopoFlood,
	"topo.NewFamily":            mstadvice.NewTopoLowerBoundFamily,
	"boruvka.Tower":             mstadvice.Tower{},
	"hier.Encode":               mstadvice.HierScheme,
	"hier.Scheme.NewNode":       mstadvice.HierScheme,
	"gen.BuildSeeded":           mstadvice.GenSeeded,
	"graph.FromEdgeList":        mstadvice.GenSeeded,           // the seeded build path constructs through it
	"par.Ranges":                mstadvice.DecomposeOpt,        // the phase kernel's min-edge scans run on it
	"boruvka.NewStream":         mstadvice.MSTProblem().Encode, // the fused encoder streams through it
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
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			// bench/ is a module of its own and never imports the facade.
			if path != "." && (path == "bench" || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "mstadvice.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if f.Name.Name == "mstadvice" {
			// A bare identifier this file does not declare resolves to
			// the package scope: a facade name or a predeclared one.
			for _, id := range f.Unresolved {
				named[id.Name] = true
			}
			return nil
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
