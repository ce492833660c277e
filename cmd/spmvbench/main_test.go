package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListExperiments smokes flag parsing and the registry listing.
func TestListExperiments(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit %d: %s", code, errOut.String())
	}
	for _, id := range []string{"fig2", "tab1", "ablation-prap"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
	// Timing lives in benchmarks/ (spmvperf); the one-off timing
	// experiments are gone from the registry.
	listed := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, id := range []string{"merge-kernels", "drain", "its-pipeline", "block-spmv", "alloc-steady"} {
		if listed[id] {
			t.Errorf("-list still offers retired experiment %s", id)
		}
	}
}

// TestRunTinyExperiment drives one functional experiment end-to-end at
// a small scale and checks both the stdout stream and the -o file copy.
func TestRunTinyExperiment(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{"-exp", "ablation-prap", "-scale", "4096", "-seed", "3", "-o", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ablation-prap") || !strings.Contains(out.String(), "Cores p") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "ablation-prap.txt"))
	if err != nil {
		t.Fatalf("-o file missing: %v", err)
	}
	if !strings.Contains(string(data), "Cores p") {
		t.Errorf("-o file lacks experiment table:\n%s", data)
	}
}

// TestAnalyticExperiment smokes a model-only experiment (no graph
// materialization), the other half of the registry.
func TestAnalyticExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "tab1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Max vertices") {
		t.Errorf("tab1 output unexpected:\n%s", out.String())
	}
}

// TestUnknownExperiment checks the usage-error exit path.
func TestUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "no-such-experiment"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unknown experiment, want 2", code)
	}
	if errOut.Len() == 0 {
		t.Error("no error message for unknown experiment")
	}
}

// TestBadFlag checks flag-parse failures exit 2 rather than panicking.
func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-scale", "not-a-number"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for bad flag, want 2", code)
	}
	// Experiments run the engine's defaults: the A/B switches are not
	// flags here.
	for _, args := range [][]string{{"-merge-workers", "1"}, {"-merge-kernel", "mergepath"}, {"-drain", "sparse"}} {
		if code := run(append(args, "-exp", "tab1"), &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2 (unknown flag)", args[0], code)
		}
	}
}

// TestReportArtifacts runs a functional experiment with -report and
// checks the JSON run report and Gantt chart land in the directory with
// real content: the engine under ablation-vldi charges traffic, so the
// report's totals must be nonzero.
func TestReportArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{"-exp", "ablation-vldi", "-scale", "2048", "-report", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "ablation-vldi.report.json"))
	if err != nil {
		t.Fatalf("report JSON missing: %v", err)
	}
	var rep struct {
		Meta struct {
			Workload string `json:"workload"`
		} `json:"meta"`
		Iterations []json.RawMessage `json:"iterations"`
		Totals     struct {
			Traffic struct {
				TotalBytes uint64 `json:"total_bytes"`
			} `json:"traffic"`
		} `json:"totals"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Meta.Workload != "spmvbench -exp ablation-vldi" {
		t.Errorf("workload = %q", rep.Meta.Workload)
	}
	if len(rep.Iterations) == 0 || rep.Totals.Traffic.TotalBytes == 0 {
		t.Errorf("report recorded nothing: %s", data)
	}
	gantt, err := os.ReadFile(filepath.Join(dir, "ablation-vldi.gantt.txt"))
	if err != nil {
		t.Fatalf("gantt missing: %v", err)
	}
	if !strings.Contains(string(gantt), "cycles") {
		t.Errorf("gantt lacks scale line:\n%s", gantt)
	}
}
