package schedulers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports names the exported functions and methods under internal/ that
// no production file calls, each with the reason it stays. Everything else
// without a non-test caller is test-only API and belongs in a _test.go file.
var keptExports = map[string]string{
	"dag.Graph.Validate": "the acyclicity check of a hand-built graph; the generator and family tests call it",
	"dag.Graph.Levels":   "the depth profile the workload family-shape tests assert",
	"dag.Graph.Width":    "ω, the paper's bound on |α|; the workload family-shape tests assert it",

	"sched.RegistryTable":       "the docs drift test pins docs/API.md to it",
	"service.ScenarioKindTable": "the docs drift test pins docs/API.md to it",
	"service.EndpointTable":     "the docs drift test pins docs/API.md to it",
	"coord.EndpointTable":       "the docs drift test pins docs/API.md to it",

	"dag.Graph.MarshalJSON":            "encoding/json calls it (json.Marshaler)",
	"dag.Graph.UnmarshalJSON":          "encoding/json calls it (json.Unmarshaler)",
	"platform.Platform.MarshalJSON":    "encoding/json calls it (json.Marshaler)",
	"platform.Platform.UnmarshalJSON":  "encoding/json calls it (json.Unmarshaler)",
	"platform.CostModel.MarshalJSON":   "encoding/json calls it (json.Marshaler)",
	"platform.CostModel.UnmarshalJSON": "encoding/json calls it (json.Unmarshaler)",
	"lazyrand.Source.Int63":            "math/rand calls it (rand.Source)",
}

// exportDecl is one exported top-level function or method.
type exportDecl struct {
	key    string // pkg.Func or pkg.Type.Method
	name   string
	method bool
}

// refIndex counts, by name, the identifiers production code uses: every
// identifier for functions, selectors only for methods.
type refIndex struct {
	idents    map[string]int
	selectors map[string]int
}

// parseTree parses every non-test Go file under root, skipping testdata.
func parseTree(t *testing.T, fset *token.FileSet, root string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// exportsOf lists the exported top-level functions and methods of f.
func exportsOf(f *ast.File) []exportDecl {
	var out []exportDecl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		e := exportDecl{key: f.Name.Name + "." + fd.Name.Name, name: fd.Name.Name}
		if fd.Recv != nil {
			recv := receiverType(fd.Recv.List[0].Type)
			if !ast.IsExported(recv) {
				continue // methods of unexported types satisfy interfaces
			}
			e.key = f.Name.Name + "." + recv + "." + fd.Name.Name
			e.method = true
		}
		out = append(out, e)
	}
	return out
}

// receiverType strips pointers and type parameters off a receiver.
func receiverType(x ast.Expr) string {
	for {
		switch v := x.(type) {
		case *ast.StarExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.IndexListExpr:
			x = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// indexRefs records every identifier of files except the names of their
// function declarations.
func indexRefs(files []*ast.File) refIndex {
	ix := refIndex{idents: map[string]int{}, selectors: map[string]int{}}
	for _, f := range files {
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decl[fd.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				ix.selectors[v.Sel.Name]++
			case *ast.Ident:
				if !decl[v] {
					ix.idents[v.Name]++
				}
			}
			return true
		})
	}
	return ix
}

// unreferenced returns the keys of the exports with no production reference
// that are not in kept.
func unreferenced(exports []exportDecl, ix refIndex, kept map[string]string) []string {
	var out []string
	for _, e := range exports {
		used := ix.idents[e.name] > 0
		if e.method {
			used = ix.selectors[e.name] > 0
		}
		if !used && kept[e.key] == "" {
			out = append(out, e.key)
		}
	}
	sort.Strings(out)
	return out
}

// productionTree parses the module and the bench module and returns the
// exports declared under internal/ with the reference index of both.
func productionTree(t *testing.T) (*token.FileSet, []exportDecl, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := parseTree(t, fset, "../..") // the walk includes bench/
	var exports []exportDecl
	internal, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		path, err := filepath.Abs(fset.Position(f.Pos()).Filename)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(path, internal+string(filepath.Separator)) {
			exports = append(exports, exportsOf(f)...)
		}
	}
	return fset, exports, files
}

// TestNoTestOnlyExports holds internal/ to one rule: an exported function or
// method has a caller outside the tests, in this module or in bench/, or an
// entry in keptExports saying why not. References are matched by name (the
// check parses, it does not type-check), so a method counts as used when any
// same-named method or field is selected somewhere.
func TestNoTestOnlyExports(t *testing.T) {
	_, exports, files := productionTree(t)
	if len(exports) < 100 {
		t.Fatalf("found only %d exports under internal/; is the walk rooted at the module?", len(exports))
	}
	for _, key := range unreferenced(exports, indexRefs(files), keptExports) {
		t.Errorf("%s is exported but only tests call it: delete it, move it into the _test.go that uses it, or add it to keptExports with a reason", key)
	}
	declared := map[string]bool{}
	for _, e := range exports {
		declared[e.key] = true
	}
	for key := range keptExports {
		if !declared[key] {
			t.Errorf("keptExports names %s, which is no longer declared", key)
		}
	}
}

// TestNoTestOnlyExportsCatchesRegrowth puts deleted test-only API back into a
// production file and checks that the guard reports every one of them.
func TestNoTestOnlyExportsCatchesRegrowth(t *testing.T) {
	fset, exports, files := productionTree(t)
	const regrown = `package dag
func (g *Graph) WriteDOT(w any) error { return nil }
func (g *Graph) ComputeStats() error { return nil }
func (g *Graph) Subgraph(tasks []TaskID) *Graph { return nil }
func (g *Graph) Ancestors(t TaskID) []bool { return nil }
func (g *Graph) LongestPathLength() float64 { return 0 }
func (g *Graph) ScaleVolumes(factor float64) error { return nil }
func (f *Flat) PredEdgeIDs(t TaskID) []int32 { return nil }
func (f *Flat) TopoPosition(t TaskID) int { return 0 }
func UnitNodeCost(TaskID) float64 { return 1 }
`
	f, err := parser.ParseFile(fset, "regrown.go", regrown, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := unreferenced(append(exports, exportsOf(f)...), indexRefs(append(files, f)), keptExports)
	want := []string{
		"dag.Flat.PredEdgeIDs", "dag.Flat.TopoPosition", "dag.Graph.Ancestors", "dag.Graph.ComputeStats",
		"dag.Graph.LongestPathLength", "dag.Graph.ScaleVolumes", "dag.Graph.Subgraph", "dag.Graph.WriteDOT",
		"dag.UnitNodeCost",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("guard reports %v, want exactly %v", got, want)
	}
}
