package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mwmerge/internal/matrix"
)

// TestLoadMatrixGenerators checks that -gen reaches graph.Generate,
// which is tested over every generator in its own package, and that
// naming no source is an error.
func TestLoadMatrixGenerators(t *testing.T) {
	m, err := loadMatrix("", "rmat", 1000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 512 || m.NNZ() == 0 {
		t.Errorf("rmat:1000: %d rows, %d nnz; want 512 rows", m.Rows, m.NNZ())
	}
	if _, err := loadMatrix("", "", 10, 3, 1); err == nil {
		t.Error("no source specified but accepted")
	}
}

// TestLoadMatrixSniffsFormats checks that -m reaches matrix.ReadFile
// for each of the three formats it sniffs.
func TestLoadMatrixSniffsFormats(t *testing.T) {
	m, err := loadMatrix("", "er", 500, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		write func(io.Writer, *matrix.COO) error
	}{
		{"g.mtx", matrix.WriteMatrixMarket},
		{"g.bin", matrix.WriteBinary},
		{"g.el", matrix.WriteEdgeList},
	} {
		path := filepath.Join(dir, tc.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.write(f, m); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, err := loadMatrix(path, "", 0, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.NNZ() != m.NNZ() {
			t.Errorf("%s: nnz %d != %d", tc.name, got.NNZ(), m.NNZ())
		}
	}
	if _, err := loadMatrix(filepath.Join(dir, "missing"), "", 0, 0, 0); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunWithObservability drives the full CLI path: a damped iterative
// run with -report/-trace/-prom plus both pprof flags, then checks every
// artifact. The JSON report must carry one iteration snapshot per -iters
// and nonzero traffic totals.
func TestRunWithObservability(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "run.json")
	promPath := filepath.Join(dir, "run.prom")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var out, errOut strings.Builder
	code := run([]string{
		"-gen", "er", "-nodes", "2000", "-degree", "3", "-seed", "9",
		"-iters", "3", "-damping", "0.85", "-overlap",
		"-report", jsonPath, "-trace", "-", "-prom", promPath,
		"-cpuprofile", cpuPath, "-memprofile", memPath,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Max |error| vs reference") {
		t.Errorf("missing validation line:\n%s", out.String())
	}
	// -trace - lands the Gantt on stdout.
	if !strings.Contains(out.String(), "cycles") {
		t.Errorf("stdout lacks Gantt scale line:\n%s", out.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-report file: %v", err)
	}
	var rep struct {
		Meta struct {
			Workload string `json:"workload"`
			Rows     uint64 `json:"rows"`
			Overlap  bool   `json:"overlap"`
		} `json:"meta"`
		Lanes      []json.RawMessage `json:"lanes"`
		Iterations []json.RawMessage `json:"iterations"`
		Totals     struct {
			Traffic struct {
				TotalBytes uint64 `json:"total_bytes"`
			} `json:"traffic"`
			TransitionBytesSaved uint64 `json:"transition_bytes_saved"`
		} `json:"totals"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("-report is not valid JSON: %v", err)
	}
	if rep.Meta.Rows != 2000 || !rep.Meta.Overlap || !strings.HasPrefix(rep.Meta.Workload, "spmvrun ") {
		t.Errorf("meta = %+v", rep.Meta)
	}
	if len(rep.Iterations) != 3 {
		t.Errorf("%d iteration snapshots, want 3", len(rep.Iterations))
	}
	if len(rep.Lanes) == 0 || rep.Totals.Traffic.TotalBytes == 0 {
		t.Errorf("report recorded nothing: %s", data)
	}
	if rep.Totals.TransitionBytesSaved == 0 {
		t.Error("overlapped 3-iteration run saved no transition bytes")
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatalf("-prom file: %v", err)
	}
	if !strings.Contains(string(prom), "mwmerge_traffic_bytes_total") {
		t.Errorf("prometheus output lacks traffic metric:\n%s", prom)
	}
	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestRunPlainStillWorks keeps the default (no recorder) CLI path green.
func TestRunPlainStillWorks(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-gen", "er", "-nodes", "1000"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Off-chip traffic") {
		t.Errorf("missing traffic summary:\n%s", out.String())
	}
	// The store-queue drain, the merge kernel and both worker counts are
	// picked by rule (prap.DrainAuto, prap.KernelMergePath, GOMAXPROCS);
	// the CLI offers no override.
	for _, flag := range []string{"-drain", "-merge-kernel", "-workers", "-merge-workers"} {
		if code := run([]string{"-gen", "er", "-nodes", "1000", flag, "1"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2 (unknown flag)", flag, code)
		}
	}
	// A bad degree is a generator error, not a makeslice panic.
	errOut.Reset()
	if code := run([]string{"-gen", "zipf", "-degree", "-3"}, &out, &errOut); code != 1 {
		t.Errorf("-degree -3: exit %d, want 1", code)
	}
	if got := errOut.String(); !strings.HasPrefix(got, "spmvrun: graph: ") {
		t.Errorf("-degree -3: stderr %q, want a graph: error", got)
	}
}

// TestRunRejectsBadIterateInput holds the iterative mode's input errors
// to a one-line error, not a run of a product nobody asked for or a
// reference check that compares an all-NaN result with an all-NaN
// reference and reports 0: a bad damping is an engine error (exit 1),
// at any iteration count; an iteration count below one or a negative
// VLDI width is a flag error (exit 2).
func TestRunRejectsBadIterateInput(t *testing.T) {
	cases := []struct {
		flags  []string
		code   int
		prefix string
	}{
		{[]string{"-iters", "3", "-damping", "NaN"}, 1, "spmvrun: core: "},
		{[]string{"-iters", "3", "-damping", "Inf"}, 1, "spmvrun: core: "},
		{[]string{"-iters", "3", "-damping", "-Inf"}, 1, "spmvrun: core: "},
		{[]string{"-damping", "NaN"}, 1, "spmvrun: core: "},
		{[]string{"-iters", "0"}, 2, "spmvrun: -iters 0: "},
		{[]string{"-iters", "-3"}, 2, "spmvrun: -iters -3: "},
		{[]string{"-vldi", "-1"}, 2, "spmvrun: -vldi -1: "},
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		args := append([]string{"-gen", "er", "-nodes", "2000", "-degree", "3"}, c.flags...)
		if code := run(args, &out, &errOut); code != c.code {
			t.Errorf("%v: exit %d, want %d\n%s", c.flags, code, c.code, out.String())
		}
		if got := errOut.String(); !strings.HasPrefix(got, c.prefix) {
			t.Errorf("%v: stderr %q, want prefix %q", c.flags, got, c.prefix)
		}
	}
}

// TestRunOneDampedIteration holds -damping (and -overlap) at the default
// -iters 1 to one damped iteration checked against the damped
// reference, not a plain SpMV checked against a plain one.
func TestRunOneDampedIteration(t *testing.T) {
	for _, extra := range [][]string{nil, {"-overlap"}} {
		var out, errOut strings.Builder
		args := append([]string{"-gen", "er", "-nodes", "2000", "-degree", "3", "-damping", "0.5"}, extra...)
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, errOut.String())
		}
		if !strings.Contains(out.String(), "Ran 1 iterations") {
			t.Errorf("%v: no iterative run:\n%s", extra, out.String())
		}
		_, check, ok := strings.Cut(out.String(), "Max |error| vs reference: ")
		if !ok {
			t.Fatalf("%v: no reference check:\n%s", extra, out.String())
		}
		var maxErr float64
		if _, err := fmt.Sscan(check, &maxErr); err != nil || maxErr > 1e-12 {
			t.Errorf("%v: max error %g (%v) vs the damped reference", extra, maxErr, err)
		}
	}
}
