package mwmerge

// The repository invariants no type expresses, checked as plain tests
// (DESIGN.md §7): the numeric packages stay deterministic by
// construction, and every package under internal/ and cmd/ opens with a
// canonical doc comment.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseGoFiles parses the non-test Go files of dir.
func parseGoFiles(t *testing.T, dir string, mode parser.Mode) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestInvariantNumericPackagesDeterministic keeps the wall clock, random
// numbers and map iteration order out of the packages whose results must
// be bit-identical across runs and worker counts: their non-test files
// import neither time nor math/rand, and spell no map type at all.
func TestInvariantNumericPackagesDeterministic(t *testing.T) {
	banned := map[string]bool{"time": true, "math/rand": true, "math/rand/v2": true}
	for _, pkg := range []string{"core", "merge", "prap", "vldi", "bitonic"} {
		for _, f := range parseGoFiles(t, filepath.Join("internal", pkg), parser.SkipObjectResolution) {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
					t.Errorf("internal/%s: a non-test file imports %q", pkg, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if _, ok := n.(*ast.MapType); ok {
					t.Errorf("internal/%s: a non-test file spells a map type", pkg)
				}
				return true
			})
		}
	}
}

// TestInvariantPackageDocs requires every package under internal/ and
// cmd/ to carry a doc comment opening "Package <name>", or "Command
// <dir>" for a main package, on at least one of its non-test files.
func TestInvariantPackageDocs(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			files := parseGoFiles(t, dir, parser.PackageClauseOnly|parser.ParseComments)
			if len(files) == 0 {
				return nil
			}
			want := "Package " + files[0].Name.Name
			if files[0].Name.Name == "main" {
				want = "Command " + d.Name()
			}
			for _, f := range files {
				if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), want) {
					return nil
				}
			}
			t.Errorf("%s: no file's package doc comment opens %q", dir, want)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
