package mwmerge

// The repository invariants no type expresses, checked as plain tests
// (DESIGN.md §7): statistics snapshots never alias their source, the
// numeric packages stay deterministic by construction, and every package
// under internal/ and cmd/ opens with a canonical doc comment.

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestInvariantSnapshotsDoNotAlias overwrites every slice and map
// element reachable from a statistics snapshot and requires the next
// snapshot to be unchanged: a snapshot sharing memory with the
// accumulating engine or pool state would carry the writes back.
func TestInvariantSnapshotsDoNotAlias(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	a, err := ErdosRenyi(2000, 4, 1)
	must(err)
	x := NewDense(int(a.Cols))
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	spmv := func(eng *Engine) error { _, err := eng.SpMV(a, x, nil); return err }
	eng, err := NewEngine(DefaultEngineConfig())
	must(err)
	pool, err := NewEnginePool(EnginePoolConfig{Name: "g", Matrix: a, Engine: DefaultEngineConfig(), Size: 1})
	must(err)
	must(spmv(eng))
	must(pool.Do(context.Background(), spmv))
	snapshots := []struct {
		name string
		take func() any
	}{
		{"Engine.Stats", func() any { return eng.Stats() }},
		{"Pool.Ledger", func() any { _, st, _ := pool.Ledger(); return st }},
	}
	for _, s := range snapshots {
		snap := s.take()
		// A JSON round trip is a deep copy: it shares no memory with snap
		// and keeps nil and empty slices apart.
		raw, err := json.Marshal(snap)
		must(err)
		want := reflect.New(reflect.TypeOf(snap))
		must(json.Unmarshal(raw, want.Interface()))
		if scribble(reflect.ValueOf(snap)) == 0 {
			t.Fatalf("%s: no slice or map element to overwrite; the check is vacuous", s.name)
		}
		if got := s.take(); !reflect.DeepEqual(got, want.Elem().Interface()) {
			t.Errorf("%s: overwriting a snapshot changed the next one:\ngot  %+v\nwant %+v", s.name, got, want.Elem())
		}
	}
}

// scribble changes every number reachable from the non-addressable v
// through a slice or map — exactly the settable ones, since those are
// the memory v could share with its source — and returns how many it
// changed.
func scribble(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += scribble(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += scribble(v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			n += scribble(e)
			v.SetMapIndex(k, e)
		}
	default:
		if !v.CanSet() {
			return 0
		}
		switch {
		case v.CanUint():
			v.SetUint(^v.Uint())
		case v.CanInt():
			v.SetInt(^v.Int())
		case v.CanFloat():
			v.SetFloat(v.Float() + 1)
		default:
			return 0
		}
		return 1
	}
	return n
}

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
