package gfc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const facadeImport = "github.com/gfcsim/gfc"

// TestFacadeExportsAreUsed keeps gfc.go from re-accreting: every exported
// name of the facade must be referenced by a test or an Example function
// somewhere in the module. A name nothing exercises is a name nothing checks
// — add the Example (or test) that needs it together with the re-export, or
// leave the name in its internal package.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "gfc.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	unused := make(map[string]bool)
	export := func(id *ast.Ident) {
		if id.IsExported() {
			unused[id.Name] = true
		}
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				export(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					export(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						export(id)
					}
				}
			}
		}
	}
	if len(unused) == 0 {
		t.Fatal("found no exported names in gfc.go")
	}

	users := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == facadeImport {
				local = "gfc"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		users++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					delete(unused, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if users == 0 {
		t.Fatal("found no test importing the facade")
	}
	names := make([]string, 0, len(unused))
	for name := range unused {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		t.Errorf("%d facade names have no user in any *_test.go — delete them from gfc.go or add the Example that needs them:\n  %s",
			len(names), strings.Join(names, "\n  "))
	}
}
