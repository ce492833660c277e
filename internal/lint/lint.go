// Package lint implements spmvlint, the project's static-analysis suite.
// It enforces the invariants the reproduction's correctness story rests
// on — bit-identical (deterministic) numeric results, an exact off-chip
// traffic ledger, alias-free statistics snapshots, a quarantined padding
// sentinel, race-free parallel merge paths, and a single blessed writer
// of the shared dense result vector — as compile-time checks
// over the whole module, using only the standard library's go/ast and
// go/types machinery (no external analysis framework).
//
// A finding can be suppressed at the offending line (or the line above
// it) with an explicit, justified annotation:
//
//	//lint:allow <analyzer> <reason>
//
// Annotations without a reason are themselves reported, so every
// suppression documents why the invariant may be waived at that site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Config parameterizes the analyzers for this repository's layout. Tests
// point the package lists at testdata corpora instead.
type Config struct {
	// NumericPackages are import paths of packages whose non-test code
	// must produce bit-identical results; the determinism analyzer
	// applies only to them.
	NumericPackages []string
	// ParallelPackages are import paths containing the goroutine-based
	// merge paths checked by the goroutinecapture analyzer.
	ParallelPackages []string
	// LedgerPackage is the import path of the package owning the
	// off-chip traffic ledger type; arithmetic on its counters is free
	// inside this package.
	LedgerPackage string
	// LedgerType is the ledger struct's type name within LedgerPackage.
	LedgerType string
	// BlessedLedgerFuncs maps an import path to function/method names
	// allowed to mutate persistent ledger state from outside
	// LedgerPackage (the accountTransition-style accounting helpers).
	BlessedLedgerFuncs map[string][]string
	// SentinelConsts are names of constants that legitimately alias the
	// reserved padding key; any file declaring one may spell the raw
	// bit pattern.
	SentinelConsts []string
	// DocPackages are import-path prefixes under which every package
	// must carry a canonical package doc comment (the pkgdoc analyzer).
	DocPackages []string
	// DenseTypePackage and DenseTypeName identify the shared dense
	// result vector type whose concurrent writes the densewrite analyzer
	// polices. An empty DenseTypePackage disables the analyzer.
	DenseTypePackage string
	DenseTypeName    string
	// BlessedDenseWriters maps an import path to the functions whose
	// literals may write shared dense vectors — the store-queue drain
	// behind the ITS segment-publish protocol.
	BlessedDenseWriters map[string][]string
}

// DefaultConfig returns the repository's invariant surface.
func DefaultConfig() Config {
	return Config{
		NumericPackages: []string{
			"mwmerge/internal/core",
			"mwmerge/internal/merge",
			"mwmerge/internal/prap",
			"mwmerge/internal/vldi",
			"mwmerge/internal/bitonic",
		},
		ParallelPackages: []string{
			"mwmerge/internal/core",
			"mwmerge/internal/merge",
			"mwmerge/internal/prap",
		},
		LedgerPackage: "mwmerge/internal/mem",
		LedgerType:    "Traffic",
		BlessedLedgerFuncs: map[string][]string{
			"mwmerge/internal/core": {"charge", "accountTransition"},
		},
		SentinelConsts:   []string{"invalidKey", "invalid"},
		DocPackages:      []string{"mwmerge/internal", "mwmerge/cmd"},
		DenseTypePackage: "mwmerge/internal/vector",
		DenseTypeName:    "Dense",
		BlessedDenseWriters: map[string][]string{
			"mwmerge/internal/prap": {"mergeInto"},
		},
	}
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string
	Config  Config
}

// report appends a finding at pos.
func (p *Pass) report(diags *[]Diagnostic, analyzer string, pos token.Pos, format string, args ...any) {
	*diags = append(*diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one per-package invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// All returns every analyzer in the suite, in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		StatsAliasAnalyzer,
		SentinelAnalyzer,
		LedgerAnalyzer,
		GoroutineAnalyzer,
		DenseWriteAnalyzer,
		PkgDocAnalyzer,
	}
}

// Lookup resolves analyzer names; unknown names are an error.
func Lookup(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies the analyzers to every package in turn, filters
// the findings through the //lint:allow annotations, and returns them in
// stable position order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pass := &Pass{
			Fset:    pkg.Fset,
			Files:   pkg.Files,
			Pkg:     pkg.Types,
			Info:    pkg.Info,
			PkgPath: pkg.Path,
			Config:  cfg,
		}
		allows, allowDiags := collectAllows(pass)
		diags = append(diags, allowDiags...)
		for _, a := range analyzers {
			for _, d := range a.Run(pass) {
				if allows.suppresses(d) {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
