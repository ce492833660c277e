package main

import (
	"strings"
	"testing"
)

// TestSelfLintClean is the `make lint` contract: the suite runs all
// seven analyzers over the whole module and must come back clean.
func TestSelfLintClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-C", "../.."}, &out, &errOut); code != 0 {
		t.Fatalf("spmvlint exit %d on its own tree:\n%s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected findings:\n%s", out.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := []string{"determinism", "statsalias", "sentinel", "ledgerdiscipline", "goroutinecapture", "densewrite", "pkgdoc"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

// TestRetiredFlagsRejected pins the flag surface to -C/-only/-list: the
// SARIF and baseline workflow is gone, not hidden.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-sarif", "-baseline", "-write-baseline"} {
		var out, errOut strings.Builder
		if code := run([]string{flag, "x"}, &out, &errOut); code != 2 {
			t.Errorf("exit %d for %s, want 2", code, flag)
		}
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unknown analyzer, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr %q lacks unknown-analyzer error", errOut.String())
	}
}

func TestAnalyzerSubset(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-C", "../..", "-only", "sentinel,determinism"}, &out, &errOut); code != 0 {
		t.Fatalf("subset lint exit %d:\n%s%s", code, out.String(), errOut.String())
	}
}
