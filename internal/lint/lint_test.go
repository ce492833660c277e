package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot locates the repository root from this package directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// sharedLoader memoizes stdlib and module dependencies across the
// corpus loads, which would otherwise re-type-check them per subtest.
func sharedLoader(t *testing.T, root string) *Loader {
	t.Helper()
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

func loadCorpus(t *testing.T, ld *Loader, root, rel string) *Package {
	t.Helper()
	pkg, err := ld.LoadDir(filepath.Join(root, "internal", "lint", "testdata", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatalf("loading corpus %s: %v", rel, err)
	}
	return pkg
}

// TestAnalyzers drives every analyzer over its seeded positive corpus
// (each violation must be caught, in order) and its negative corpus
// (the suite must stay silent). All seven analyzers run on every corpus,
// so the test also proves no analyzer misfires on another's code.
func TestAnalyzers(t *testing.T) {
	root := moduleRoot(t)
	ld := sharedLoader(t, root)
	cases := []struct {
		corpus string
		config func(pkgPath string) Config
		// want lists expected findings in position order as
		// "analyzer|message substring".
		want []string
	}{
		{
			corpus: "determinism/pos",
			config: func(p string) Config { return Config{NumericPackages: []string{p}} },
			want: []string{
				"determinism|math/rand",
				"determinism|range over map",
				"determinism|time.Now",
			},
		},
		{
			corpus: "determinism/neg",
			config: func(p string) Config { return Config{NumericPackages: []string{p}} },
		},
		{
			corpus: "statsalias/pos",
			config: func(p string) Config { return Config{} },
			want: []string{
				"statsalias|field Hist",
				"statsalias|field Nested",
				"statsalias|field Hist",
				"statsalias|field Nested",
			},
		},
		{
			corpus: "statsalias/neg",
			config: func(p string) Config { return Config{} },
		},
		{
			corpus: "sentinel/pos",
			config: func(p string) Config { return Config{} },
			want: []string{
				"sentinel|raw ^uint64(0)",
				"sentinel|math.MaxUint64",
			},
		},
		{
			corpus: "sentinel/neg",
			config: func(p string) Config { return Config{} },
		},
		{
			corpus: "ledger/pos",
			config: func(p string) Config {
				return Config{LedgerPackage: "mwmerge/internal/mem", LedgerType: "Traffic"}
			},
			want: []string{
				"ledgerdiscipline|ledger counter e.traffic.MatrixBytes",
				"ledgerdiscipline|ledger-typed field e.traffic",
			},
		},
		{
			corpus: "ledger/neg",
			config: func(p string) Config {
				return Config{
					LedgerPackage:      "mwmerge/internal/mem",
					LedgerType:         "Traffic",
					BlessedLedgerFuncs: map[string][]string{p: {"BlessedCharge"}},
				}
			},
		},
		{
			corpus: "goroutine/pos",
			config: func(p string) Config { return Config{ParallelPackages: []string{p}} },
			want: []string{
				"goroutinecapture|captured variable total",
				"goroutinecapture|captured variable s.N",
			},
		},
		{
			corpus: "goroutine/neg",
			config: func(p string) Config { return Config{ParallelPackages: []string{p}} },
		},
		{
			corpus: "densewrite/pos",
			config: func(p string) Config {
				return Config{
					ParallelPackages: []string{p},
					DenseTypePackage: "mwmerge/internal/vector",
					DenseTypeName:    "Dense",
				}
			},
			want: []string{
				"densewrite|shared dense vector out",
				"densewrite|shared dense vector out",
				"densewrite|shared dense vector ar.out",
			},
		},
		{
			corpus: "densewrite/neg",
			config: func(p string) Config {
				return Config{
					ParallelPackages:    []string{p},
					DenseTypePackage:    "mwmerge/internal/vector",
					DenseTypeName:       "Dense",
					BlessedDenseWriters: map[string][]string{p: {"BlessedDrain"}},
				}
			},
		},
		{
			corpus: "pkgdoc/pos",
			config: func(p string) Config { return Config{DocPackages: []string{p}} },
			want: []string{
				"pkgdoc|no package doc comment",
			},
		},
		{
			corpus: "pkgdoc/malformed",
			config: func(p string) Config { return Config{DocPackages: []string{p}} },
			want: []string{
				"pkgdoc|should start with",
			},
		},
		{
			corpus: "pkgdoc/neg",
			config: func(p string) Config { return Config{DocPackages: []string{p}} },
		},
		{
			corpus: "allowed",
			config: func(p string) Config { return Config{NumericPackages: []string{p}} },
			want: []string{
				"allow|needs a justification",
				"determinism|range over map",
			},
		},
		{
			// A //go:build race / !race file pair: the loader must honor
			// build constraints, or the pair redeclares its constant and
			// the package fails to type-check before any analyzer runs.
			corpus: "buildtags",
			config: func(p string) Config { return Config{} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.corpus, func(t *testing.T) {
			pkg := loadCorpus(t, ld, root, tc.corpus)
			diags := RunAnalyzers([]*Package{pkg}, All(), tc.config(pkg.Path))
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(tc.want), renderDiags(diags))
			}
			for i, w := range tc.want {
				analyzer, substr, _ := strings.Cut(w, "|")
				if diags[i].Analyzer != analyzer {
					t.Errorf("finding %d: analyzer %s, want %s (%s)", i, diags[i].Analyzer, analyzer, diags[i])
				}
				if !strings.Contains(diags[i].Message, substr) {
					t.Errorf("finding %d: message %q does not contain %q", i, diags[i].Message, substr)
				}
			}
		})
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

// TestLookupRejectsUnknown keeps -only flag errors loud.
func TestLookupRejectsUnknown(t *testing.T) {
	if _, err := Lookup([]string{"determinism", "nope"}); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
	as, err := Lookup([]string{"sentinel"})
	if err != nil || len(as) != 1 || as[0].Name != "sentinel" {
		t.Fatalf("Lookup(sentinel) = %v, %v", as, err)
	}
}

// TestDefaultConfigTargetsExist guards the config against package moves:
// every import path it names must still load from the module.
func TestDefaultConfigTargetsExist(t *testing.T) {
	root := moduleRoot(t)
	ld := sharedLoader(t, root)
	cfg := DefaultConfig()
	paths := append(append([]string{}, cfg.NumericPackages...), cfg.ParallelPackages...)
	paths = append(paths, cfg.LedgerPackage)
	for p := range cfg.BlessedLedgerFuncs {
		paths = append(paths, p)
	}
	for _, p := range paths {
		rel := strings.TrimPrefix(p, "mwmerge/")
		if _, err := ld.LoadDir(filepath.Join(root, filepath.FromSlash(rel))); err != nil {
			t.Errorf("config names package %s, which does not load: %v", p, err)
		}
	}
}
