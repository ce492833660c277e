package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testShrink divides every workload's node count in the self-test
// (RMAT 17 becomes RMAT 11); real runs always use 1.
const testShrink = 64

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSchema keeps BENCHMARK.json and the tables in
// metrics.go from drifting apart.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(benchmarkSchema(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(onDisk)) != string(want) {
		t.Fatalf("BENCHMARK.json differs from `spmvperf -schema`; regenerate it")
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(workloadDefs) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(workloadDefs), len(workloads))
	}
	for i, w := range workloads {
		if workloadDefs[i].Name != w.name {
			t.Errorf("workload %d is declared as %q but implemented as %q", i, workloadDefs[i].Name, w.name)
		}
	}
}

// TestEveryWorkloadBothModes runs all four workloads untraced and traced
// on shrunk inputs and checks what a run promises: exactly the declared
// metrics, all finite and non-negative, no failed operation, and a span
// tree whose parents resolve and whose self times are non-negative.
func TestEveryWorkloadBothModes(t *testing.T) {
	shrink = testShrink
	defer func() { shrink = 1 }()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{seed: 1, seconds: 1.5, traced: traced}
			if traced {
				opt.traceOut = filepath.Join(t.TempDir(), "spans.json")
			}
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
					continue
				}
				// The tracing overhead is a difference of two timings and
				// may come out below zero; everything else is a magnitude.
				if math.IsNaN(v.Median) || math.IsInf(v.Median, 0) || (v.Median < 0 && m.Name != "trace.overhead_pct") {
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, v.Median)
				}
				if !traced && v.Median == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w.name, m.Name)
				}
			}
			if traced {
				checkSpanFile(t, opt.traceOut)
			}
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run wrote no spans")
	}
	imported := 0
	for i, s := range spans {
		if s.ID != i || s.Parent < -1 || s.Parent >= len(spans) || s.SelfNS < 0 || s.End < s.Start {
			t.Fatalf("span %d is inconsistent: %+v", i, s)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %+v leaves its parent %+v", s, p)
			}
		}
		if strings.HasPrefix(s.Name, "merge/") && s.Parent >= 0 && spans[s.Parent].Name == "phase:s2" {
			imported++
		}
	}
	if imported == 0 {
		t.Error("no Recorder merge lane was linked under a phase:s2 span")
	}
}

// TestQuartilesFollowPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) gives, since the driver uses that.
func TestQuartilesFollowPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 4, 7, 2, 9, 3, 8, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

// TestCompareVerdicts covers the three verdicts of -compare and its
// exact-counter check on hand-made reports.
func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) summary { return summaryOf(vals) }
	lowerM := metricDef{Name: "x_ms", Better: lower, Bound: 0.10}
	higherM := metricDef{Name: "x_rps", Better: higher, Bound: 0.10}
	cases := []struct {
		m    metricDef
		a, b summary
		want string
	}{
		{lowerM, mk(100, 101, 102, 103), mk(104, 105, 106, 107), "ok"},
		{lowerM, mk(100, 101, 102, 103), mk(120, 121, 122, 123), "worse"},
		{lowerM, mk(80, 100, 120, 140), mk(90, 110, 130, 150), "unresolved"},
		{higherM, mk(100, 101, 102, 103), mk(80, 81, 82, 83), "worse"},
		{higherM, mk(100, 101, 102, 103), mk(120, 121, 122, 123), "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict(%v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, iters float64, hash string) string {
		r := newRunResult("er_merge", options{seed: 1, traced: true})
		r.value("core.pagerank_iters", iters)
		r.Hashes["spmv"] = hash
		path := filepath.Join(dir, name)
		if err := appendReport(path, hostInfo{Commit: name}, []*runResult{r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, moved := write("a.json", 25, "aa"), write("same.json", 25, "aa"), write("moved.json", 26, "bb")
	var out bytes.Buffer
	if good, err := compareReports(&out, a, same); err != nil || !good {
		t.Errorf("identical reports compare as different: %v\n%s", err, out.String())
	}
	out.Reset()
	good, err := compareReports(&out, a, moved)
	if err != nil || good || !strings.Contains(out.String(), "core.pagerank_iters") || !strings.Contains(out.String(), "result hash of spmv") {
		t.Errorf("a moved exact counter and hash went unreported: %v\n%s", err, out.String())
	}
}
