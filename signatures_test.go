package pxml_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// pinnedCtx are the only exported …Ctx names allowed under internal/: the
// benchmark harness (e2ebench/, a nested module) still calls them by these
// exact names. ROADMAP 1c moves the harness onto the ctx-first forms; that
// change deletes these five and empties this list.
var pinnedCtx = []string{
	"bayes.Network.ProbExistsCtx",
	"bayes.PathProbWithCtx",
	"enumerate.EnumerateCtx",
	"query.PointQueryIndexedCtx",
	"rescache.Cache.DoCtx",
}

// TestOneSignaturePerKernel: a kernel has one exported entry point, which
// takes ctx first and reads its governor with govern.From (DESIGN §27). A
// new exported …Ctx function is a ctx-free twin growing back.
func TestOneSignaturePerKernel(t *testing.T) {
	files, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	checked := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !strings.HasSuffix(fn.Name.Name, "Ctx") {
				continue
			}
			name := f.Name.Name + "."
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name += types.ExprString(recv) + "."
			}
			found = append(found, name+fn.Name.Name)
		}
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
	sort.Strings(found)
	if strings.Join(found, " ") != strings.Join(pinnedCtx, " ") {
		t.Errorf("exported …Ctx names under internal/ = %v, want exactly the harness-pinned %v", found, pinnedCtx)
	}
}
