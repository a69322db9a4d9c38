package htap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"htapxplain/internal/workload"
)

// TestModelMatchesRun: Model is the modeled part of Run — same SQL, same
// two plan trees, same modeled times, same winner — for every query of a
// training and a held-out batch. The explanation pipeline labels, curates
// and explains from Model, so its router, knowledge base and numbers are
// what they were when it executed every query and kept only this.
func TestModelMatchesRun(t *testing.T) {
	s := newSystem(t)
	queries := append(workload.NewGenerator(101).Batch(60), workload.NewTestGenerator(10100).Batch(60)...)
	for _, q := range queries {
		m, err := s.Model(q.SQL)
		if err != nil {
			t.Fatalf("Model(%q): %v", q.SQL, err)
		}
		res, err := s.Run(q.SQL)
		if err != nil {
			t.Fatalf("Run(%q): %v", q.SQL, err)
		}
		if m.SQL != q.SQL || m.SQL != res.SQL {
			t.Errorf("SQL: Model %q, Run %q, want %q", m.SQL, res.SQL, q.SQL)
		}
		if m.Pair.TP.ExplainJSON() != res.Pair.TP.ExplainJSON() || m.Pair.AP.ExplainJSON() != res.Pair.AP.ExplainJSON() {
			t.Errorf("%q: Model and Run planned different trees", q.SQL)
		}
		if m.TPTime != res.TPTime || m.APTime != res.APTime || m.Winner != res.Winner || m.Speedup() != res.Speedup() {
			t.Errorf("%q: Model %v/%v → %v, Run %v/%v → %v",
				q.SQL, m.TPTime, m.APTime, m.Winner, res.TPTime, res.APTime, res.Winner)
		}
	}
}

// TestExplainPipelineNeverExecutes: no non-test file of the explanation
// pipeline, the evaluation harness, the commands or the examples calls
// System.Run — an explanation is grounded in plan.Modeled, which Model
// (or the gateway's plan cache) provides without executing anything — and
// nothing outside package plan builds a plan.Modeled by hand, so the
// winner always comes from NewModeled's rule. Without type information a
// `.Run(` call on anything but an imported package (study.Run) counts.
func TestExplainPipelineNeverExecutes(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	walk := func(root string, check func(rel string, f *ast.File)) {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			check(filepath.ToSlash(strings.TrimPrefix(p, "../../")), f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	noRun := func(rel string, f *ast.File) {
		pkgs := map[string]bool{}
		for _, imp := range f.Imports {
			name, _ := strconv.Unquote(imp.Path.Value)
			name = path.Base(name)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
				if id, ok := sel.X.(*ast.Ident); !ok || !pkgs[id.Name] {
					t.Errorf("%s: a .Run( call; explain from System.Model — Run is the tests' two-engine reference", fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
	for _, tree := range []string{"internal/explain", "internal/explainsvc", "internal/expert", "internal/eval", "cmd", "examples"} {
		before := files
		walk("../../"+tree, noRun)
		if files == before {
			t.Errorf("%s: no Go files walked (is the walk looking at the right tree?)", tree)
		}
	}
	noLiteral := func(rel string, f *ast.File) {
		if strings.HasPrefix(rel, "internal/plan/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Modeled" {
				t.Errorf("%s: a hand-built plan.Modeled; plan.NewModeled owns the winner rule", fset.Position(lit.Pos()))
			}
			return true
		})
	}
	for _, tree := range []string{"internal", "cmd", "examples"} {
		walk("../../"+tree, noLiteral)
	}
}
