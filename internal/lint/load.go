package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package of the module under
// analysis. Test files (*_test.go) are excluded: the invariants guard
// shipped code, and test packages may legitimately use maps, rand, and
// raw sentinels to construct adversarial inputs.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader type-checks module packages from source. Imports inside the
// module resolve recursively through the loader itself; everything else
// (the standard library) resolves through go/importer's source importer,
// so the whole pipeline needs no compiled export data and no external
// tooling.
type loader struct {
	fset     *token.FileSet
	modPath  string
	root     string
	pkgs     map[string]*Package
	loading  map[string]bool
	fallback types.Importer
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		modPath:  modPath,
		root:     root,
		pkgs:     make(map[string]*Package),
		loading:  make(map[string]bool),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// LoadModule parses and type-checks every non-test package under root
// (skipping testdata, vendor, hidden, and output directories) and
// returns them sorted by import path.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || name == "out" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if has {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// A Loader memoizes type-checked packages (module and standard library
// alike) across LoadDir calls, so callers checking many small packages
// — the analyzer unit tests — pay for each dependency once.
type Loader struct{ l *loader }

// NewLoader builds a memoizing loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return &Loader{l: newLoader(root, modPath)}, nil
}

// LoadDir type-checks the single package in dir against the loader's
// module. It exists for the analyzer unit tests, whose corpora live
// under testdata/ where the ordinary module walk (and the go tool)
// never look.
func (ld *Loader) LoadDir(dir string) (*Package, error) {
	return ld.l.loadDir(dir)
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && isLintedGoFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func isLintedGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// importPathFor maps a directory to its import path within the module.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// dirFor inverts importPathFor for module-internal import paths.
func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// Import implements types.Importer over the loader, so module-internal
// imports type-check from source while everything else falls back to
// the standard source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.loadDir(l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.fallback.Import(path)
}

// loadDir parses and type-checks one package directory (memoized).
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !isLintedGoFile(e.Name()) {
			continue
		}
		// Honor //go:build constraints and GOOS/GOARCH file suffixes the
		// way `go build` does, so tag-gated file pairs (e.g. race.go /
		// norace.go) never type-check into the same package.
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}

	p := &Package{Fset: l.fset, Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}
