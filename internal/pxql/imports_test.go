package pxql

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPackageStaysEvaluatorFree: pxql is the language — Parse, Query,
// Result, the shapes. internal/engine is the one evaluator and the one
// place the tree-or-DAG lane is chosen; a kernel, governor or engine import
// here is how a second evaluator would start growing back.
func TestPackageStaysEvaluatorFree(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue // the statement tests drive the engine from package pxql_test
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch strings.TrimPrefix(path, "pxml/internal/") {
			case "bayes", "query", "enumerate", "govern", "engine":
				t.Errorf("%s imports %s: pxql must not evaluate", file, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
}
