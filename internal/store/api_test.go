package store

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestExportedAPI pins the package's exported surface: one line per
// package-level exported name and per exported method of a concrete
// type declared in a non-test file, sorted. A name added, removed or
// renamed shows up as a diff of testdata/api.golden; regenerate it with
// -update when that is the intent.
func TestExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range pkgs["store"].Files {
		for _, d := range f.Decls {
			lines = append(lines, exportedLines(d)...)
		}
	}
	slices.Sort(lines)
	lines = slices.Compact(lines) // a name declared under both build tags counts once
	got := []byte(strings.Join(lines, "\n") + "\n")

	const path = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for _, l := range lines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("exported but not in %s: %s", path, l)
			}
		}
		for _, l := range wantLines {
			if !slices.Contains(lines, l) {
				t.Errorf("in %s but not exported: %s", path, l)
			}
		}
		t.Fatalf("exported API (%d names) differs from %s; rerun with -update if the change is meant", len(lines), path)
	}
}

// exportedLines names what one declaration exports: "func F",
// "func (*T) M" (methods of interface types are part of their type's
// line), "type T", "const C" or "var V".
func exportedLines(d ast.Decl) []string {
	var out []string
	switch d := d.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv == nil {
			return []string{"func " + d.Name.Name}
		}
		recv := d.Recv.List[0].Type
		star := ""
		if p, ok := recv.(*ast.StarExpr); ok {
			star, recv = "*", p.X
		}
		return []string{"func (" + star + recv.(*ast.Ident).Name + ") " + d.Name.Name}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, d.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return out
}
