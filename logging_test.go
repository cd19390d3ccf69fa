package pxml_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneLogger: the daemon logs through one *slog.Logger that pxmld
// builds and server.New hands down (DESIGN §39). Under internal/, a
// stdlib "log" import, a write to os.Stderr, or a Logf field or logf hook
// is a second logger growing back.
func TestOneLogger(t *testing.T) {
	var found []string
	checked := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		osName := ""
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); {
			case p == "log":
				found = append(found, fset.Position(imp.Pos()).String()+`: imports "log"`)
			case p == "os":
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && osName != "" && x.Name == osName && n.Sel.Name == "Stderr" {
					found = append(found, fset.Position(n.Pos()).String()+": uses os.Stderr")
				}
			case *ast.Field:
				for _, name := range n.Names {
					if strings.EqualFold(name.Name, "logf") {
						found = append(found, fset.Position(name.Pos()).String()+": declares a "+name.Name+" field")
					}
				}
			case *ast.FuncDecl:
				if strings.EqualFold(n.Name.Name, "logf") {
					found = append(found, fset.Position(n.Pos()).String()+": declares "+n.Name.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
	for _, f := range found {
		t.Error(f)
	}
}
