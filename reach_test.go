package gfc_test

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

// testSupport lists the declarations in non-test files that no program
// reaches on purpose. Everything else a non-test file declares must be
// reachable, by name, from a program.
var testSupport = map[string]string{
	"core.OverheadModel.WorstCase": "the paper's §4.2 closed form m/τ (beside Steady, m/8τ): BenchmarkOverheadModel regenerates EXPERIMENTS.md's row from it",
	"eventsim.Engine.RunAll":       "drains an engine in one call; every eventsim and flowcontrol unit test's driver",
	"eventsim.Engine.LaneStats":    "the lane-share guards (TestLaneShareAcrossCatalogue, TestLaneShareOfSweepCell) read it",
}

// TestNoTestOnlyDeclarations is the function-level twin of CI's orphan-package
// gate: every top-level declaration of a non-test file must be reachable from
// cmd/, examples/, benchmark/ or the facade. Reachability is by name — a
// declaration is live once any live declaration mentions its name — which
// over-approximates the call graph (two methods called Reset keep each other
// alive) and so only ever errs towards keeping code. What it catches is the
// helper whose last caller was deleted, the accessor only its own test reads
// and the reference implementation that belongs in the _test.go that compares
// against it: code that costs a reader attention and that no run executes.
func TestNoTestOnlyDeclarations(t *testing.T) {
	type decl struct {
		id       string // pkg.Name or pkg.Type.Method
		name     string
		pos      token.Position
		mentions map[string]bool
		root     bool
	}
	var decls []*decl
	byName := map[string][]*decl{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		top := strings.Split(filepath.ToSlash(path), "/")[0]
		program := top == "cmd" || top == "examples" || top == "benchmark" || path == "gfc.go"
		add := func(name *ast.Ident, recv string, body ast.Node) {
			d := &decl{
				id: f.Name.Name + "." + recv + name.Name, name: name.Name,
				pos: fset.Position(name.Pos()), mentions: map[string]bool{},
				// Programs are the roots; so is what the runtime or a
				// blank assignment calls without naming it.
				root: program || name.Name == "init" || name.Name == "_",
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != name {
					d.mentions[id.Name] = true
				}
				return true
			})
			decls = append(decls, d)
			byName[d.name] = append(byName[d.name], d)
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				recv := ""
				if gd.Recv != nil {
					typ := gd.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					switch idx := typ.(type) { // a generic receiver
					case *ast.IndexExpr:
						typ = idx.X
					case *ast.IndexListExpr:
						typ = idx.X
					}
					recv = typ.(*ast.Ident).Name + "."
				}
				add(gd.Name, recv, gd)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(name, "", s)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	live := map[*decl]bool{}
	var queue []*decl
	mark := func(d *decl) {
		if !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range decls {
		if d.root {
			mark(d)
		}
	}
	// Methods the language or the standard library calls through an
	// interface the code never spells.
	for _, name := range []string{"String", "Error", "Unwrap", "Len", "Less", "Swap", "MarshalJSON", "UnmarshalJSON"} {
		for _, d := range byName[name] {
			mark(d)
		}
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		for name := range d.mentions {
			for _, m := range byName[name] {
				mark(m)
			}
		}
	}

	var dead []string
	for _, d := range decls {
		if _, ok := testSupport[d.id]; ok {
			if live[d] {
				t.Errorf("%s is listed as test support but a program reaches it — drop the entry", d.id)
			}
			delete(testSupport, d.id)
			continue
		}
		if !live[d] {
			dead = append(dead, d.pos.String()+": "+d.id)
		}
	}
	for id := range testSupport {
		t.Errorf("%s is listed as test support but no longer declared — drop the entry", id)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations in non-test files are reachable from no program (cmd/, examples/, benchmark/, gfc.go) — "+
			"delete each with the test that only tested it, or move it into the _test.go that uses it as a reference:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}
