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

	// AllocFreeRoots maps an import path to the steady-state root
	// functions of the allocfree analyzer: everything reachable from
	// them through the call graph must not allocate. An empty map
	// disables the analyzer.
	AllocFreeRoots map[string][]string
	// AllocFreeWarm maps an import path to blessed warm-up/arena-growth
	// functions: the allocfree walk neither scans nor descends into
	// them, because allocating on a cold path is their whole job.
	AllocFreeWarm map[string][]string
	// AllocFreeExemptPackages lists import paths the allocfree walk
	// skips entirely (the nil-gated observability layer, whose runs
	// trade allocations for evidence deliberately).
	AllocFreeExemptPackages []string

	// PoolPackage is the import path of the engine-pool serving layer
	// checked by the poolconfine analyzer. Empty disables the analyzer.
	PoolPackage string
	// EngineTypePackage and EngineTypeName identify the pooled engine
	// type whose goroutine confinement poolconfine enforces.
	EngineTypePackage string
	EngineTypeName    string
	// PoolCheckoutFuncs and PoolReturnFuncs name the PoolPackage
	// functions that check an engine out of the pool and give it back;
	// a checkout must be paired with a return on every exit.
	PoolCheckoutFuncs []string
	PoolReturnFuncs   []string
	// BlessedPoolFuncs maps an import path to the pool-mechanics
	// functions (construction, checkout, return) that may legitimately
	// store or send pooled engines.
	BlessedPoolFuncs map[string][]string

	// SnapshotTypes maps an import path to struct type names holding a
	// published snapshot: every field declared after the struct's
	// sync.Mutex field may be touched only while that mutex is held
	// (the locksnapshot analyzer). An empty map disables the analyzer.
	SnapshotTypes map[string][]string
	// BlessedSnapshotFuncs maps an import path to helper functions
	// exempt from the lock-span check because they are documented to
	// run under a caller-held lock.
	BlessedSnapshotFuncs map[string][]string
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
		AllocFreeRoots: map[string][]string{
			// The two inner paths of the steady state: the k-wide
			// Two-Step driver every dense entry point and sequential
			// iteration funnels through (scalar calls are its k=1
			// case), and the ITS pipeline. Both reach the prap merge
			// paths through Network.MergeInto. The entry points
			// themselves are NOT roots: per-call warm-up (plan build,
			// x0 clone, PageRank's normalization) may allocate by
			// design.
			"mwmerge/internal/core": {"Engine.spmvCompute", "Engine.iteratePipelined"},
			// The Merge-Path kernel's steady-state entry: everything
			// past its sized() warm-up (arena growth) must stay
			// allocation-free, DESIGN.md §12.
			"mwmerge/internal/merge": {"MergePathWorkspace.MergeAccumulateInto"},
		},
		AllocFreeWarm: map[string][]string{
			// Arena-growth and first-use paths (DESIGN.md §9): they
			// allocate only until the arenas reach steady-state capacity.
			"mwmerge/internal/core": {
				"Engine.planFor", "Engine.getDense", "Engine.putDense",
				"Engine.pipeGate", "Engine.pipeNext",
				"stripeBank.sized", "stripeScratch.recsFor", "frontierScratch.sized",
				"lptScratch.sized",
			},
			"mwmerge/internal/prap": {
				"Network.acquire",
				"mergeScratch.slotsFor", "mergeScratch.outcomesFor",
				"mergeScratch.batchesFor", "mergeScratch.sortBufsFor",
				"mergeScratch.coresFor", "mergeScratch.countersFor",
				"mergeScratch.planFor",
			},
			"mwmerge/internal/merge":  {"Workspace.MergeAccumulateInto", "MergePathWorkspace.sized"},
			"mwmerge/internal/vector": {"Dense.Clone", "NewDense"},
		},
		AllocFreeExemptPackages: []string{
			"mwmerge/internal/report",
			"mwmerge/internal/trace",
		},
		PoolPackage:       "mwmerge/internal/serve",
		EngineTypePackage: "mwmerge/internal/core",
		EngineTypeName:    "Engine",
		PoolCheckoutFuncs: []string{"Pool.acquire", "Pool.acquireBatch"},
		PoolReturnFuncs:   []string{"Pool.release", "Pool.releaseBatch"},
		BlessedPoolFuncs: map[string][]string{
			"mwmerge/internal/serve": {"NewPool", "Pool.acquire", "Pool.release", "Pool.acquireBatch", "Pool.releaseBatch"},
		},
		SnapshotTypes: map[string][]string{
			"mwmerge/internal/serve": {"member", "batcher"},
		},
		BlessedSnapshotFuncs: map[string][]string{},
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

// Program hands the whole loaded module — every package plus the static
// call graph over them — to a call-graph-aware analyzer.
type Program struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Graph  *CallGraph
	Config Config
}

// byPath returns the loaded package with the given import path, or nil.
func (p *Program) byPath(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// pass builds the per-package view of a program package, so program
// analyzers can reuse the Pass-based helpers.
func (p *Program) pass(pkg *Package) *Pass {
	return &Pass{
		Fset:    pkg.Fset,
		Files:   pkg.Files,
		Pkg:     pkg.Types,
		Info:    pkg.Info,
		PkgPath: pkg.Path,
		Config:  p.Config,
	}
}

// report appends a finding at pos.
func (p *Program) report(diags *[]Diagnostic, analyzer string, pos token.Pos, format string, args ...any) {
	*diags = append(*diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker: either per-package (Run) or
// call-graph-aware over the whole module (RunProgram). Exactly one of
// the two is set.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) []Diagnostic
	RunProgram func(*Program) []Diagnostic
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
		AllocFreeAnalyzer,
		PoolConfineAnalyzer,
		LockSnapshotAnalyzer,
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

// RunAnalyzers applies the analyzers to every package — per-package
// analyzers to each in turn, call-graph-aware analyzers once over the
// whole set — filters the findings through the //lint:allow annotations,
// and returns them in stable position order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var diags []Diagnostic
	allAllows := make(allowSet)
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
		for k := range allows {
			allAllows[k] = true
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			for _, d := range a.Run(pass) {
				if allows.suppresses(d) {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			if len(pkgs) == 0 {
				break
			}
			prog = &Program{Fset: pkgs[0].Fset, Pkgs: pkgs, Graph: BuildCallGraph(pkgs), Config: cfg}
		}
		for _, d := range a.RunProgram(prog) {
			if allAllows.suppresses(d) {
				continue
			}
			diags = append(diags, d)
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
