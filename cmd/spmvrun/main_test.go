package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
)

func TestLoadMatrixGenerators(t *testing.T) {
	for _, gen := range []string{"er", "rmat", "zipf"} {
		m, err := loadMatrix("", gen, 1000, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if m.NNZ() == 0 {
			t.Errorf("%s: empty graph", gen)
		}
	}
	if _, err := loadMatrix("", "", 10, 3, 1); err == nil {
		t.Error("no source specified but accepted")
	}
}

func TestLoadMatrixSniffsFormats(t *testing.T) {
	dir := t.TempDir()
	m, err := graph.ErdosRenyi(500, 3, 2)
	if err != nil {
		t.Fatal(err)
	}

	mmPath := filepath.Join(dir, "g.mtx")
	fm, err := os.Create(mmPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := matrix.WriteMatrixMarket(fm, m); err != nil {
		t.Fatal(err)
	}
	fm.Close()

	elPath := filepath.Join(dir, "g.el")
	fe, err := os.Create(elPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := matrix.WriteEdgeList(fe, m); err != nil {
		t.Fatal(err)
	}
	fe.Close()

	binPath := filepath.Join(dir, "g.bin")
	fb, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := matrix.WriteBinary(fb, m); err != nil {
		t.Fatal(err)
	}
	fb.Close()

	for _, p := range []string{mmPath, binPath, elPath} {
		got, err := loadMatrix(p, "", 0, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got.NNZ() != m.NNZ() {
			t.Errorf("%s: nnz %d != %d", p, got.NNZ(), m.NNZ())
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
		"-iters", "3", "-damping", "0.85", "-overlap", "-workers", "2",
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
	// The store-queue drain and the merge kernel are picked by rule
	// (prap.DrainAuto, prap.KernelMergePath); the CLI offers no override.
	for _, flag := range []string{"-drain", "-merge-kernel"} {
		if code := run([]string{"-gen", "er", "-nodes", "1000", flag, "x"}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2 (unknown flag)", flag, code)
		}
	}
	for flag, want := range map[string]string{
		"-workers":       "spmvrun: core: workers must be non-negative",
		"-merge-workers": "spmvrun: prap: merge workers must be non-negative",
	} {
		errOut.Reset()
		if code := run([]string{"-gen", "er", "-nodes", "1000", flag, "-3"}, &out, &errOut); code != 1 {
			t.Errorf("%s -3: exit %d, want 1", flag, code)
		}
		if got := strings.TrimSpace(errOut.String()); got != want {
			t.Errorf("%s -3: stderr %q, want %q", flag, got, want)
		}
	}
}
