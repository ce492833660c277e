package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// reportFile is what -out writes: the host and every run appended to
// the file so far, so ten runs of one commit can share one file.
type reportFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

// loadReport reads a report file.
func loadReport(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendReport adds runs to the report at path, creating it if absent.
func appendReport(path string, host hostInfo, runs []*runResult) error {
	rf, err := loadReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf, err = &reportFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Host = host
	rf.Runs = append(rf.Runs, runs...)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// summary is one side of a comparison row: the median with quartiles
// and range of a metric over a file's runs of one workload. With a
// single run the run's own per-repetition quartiles stand in.
type summary struct {
	n               int
	q1, med, q3     float64
	lowest, highest float64
}

func summarize(runs []*runResult, metric string) (summary, bool) {
	var medians []float64
	var only metricValue
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			medians = append(medians, m.Median)
			only = m
		}
	}
	switch len(medians) {
	case 0:
		return summary{}, false
	case 1:
		return summary{n: 1, q1: only.Q1, med: only.Median, q3: only.Q3, lowest: only.Q1, highest: only.Q3}, true
	}
	return summaryOf(medians), true
}

// summaryOf summarizes two or more values.
func summaryOf(v []float64) summary {
	s := summary{n: len(v), lowest: math.Inf(1), highest: math.Inf(-1)}
	s.q1, s.med, s.q3 = quartiles(v)
	for _, x := range v {
		s.lowest, s.highest = math.Min(s.lowest, x), math.Max(s.highest, x)
	}
	return s
}

func (s summary) spread() float64 { return (s.q3 - s.q1) / s.med }

// verdict applies a metric's bound to parent a and change b: "worse"
// when b's median is worse than a's by more than the bound, and
// "unresolved" when the spread of either side exceeds the bound while
// their runs interleave, so neither "worse" nor "unchanged" can be told.
func verdict(m metricDef, a, b summary) string {
	worseBy := (b.med - a.med) / a.med
	if m.Better == higher {
		worseBy = -worseBy
	}
	interleave := b.lowest <= a.highest && a.lowest <= b.highest
	switch {
	case math.Max(a.spread(), b.spread()) > m.Bound && interleave:
		return "unresolved"
	case worseBy > m.Bound:
		return "worse"
	}
	return "ok"
}

// compareReports prints one row per (workload, end-to-end metric) of
// the two files and checks that exact counters and result hashes of
// runs with the same workload, seed and mode are identical. It returns
// false when anything got worse or stopped being identical.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	fb, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	pick := func(rf *reportFile, workload string, traced bool) []*runResult {
		var out []*runResult
		for _, r := range rf.Runs {
			if r.Workload == workload && r.Traced == traced {
				out = append(out, r)
			}
		}
		return out
	}
	good := true
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\nratio = B/A, base A\n", pathA, fa.Host.Commit, pathB, fb.Host.Commit)
	fmt.Fprintf(w, "%-12s %-24s %10s %21s %10s %21s %7s %6s %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "ratio", "bound", "verdict")
	for _, wd := range workloadDefs {
		ra, rb := pick(fa, wd.Name, false), pick(fb, wd.Name, false)
		for _, r := range append(append([]*runResult(nil), ra...), rb...) {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-12s seed %d: ops_failed %d\n", wd.Name, r.Seed, r.Failed)
				good = false
			}
		}
		for _, m := range endToEnd {
			a, okA := summarize(ra, m.Name)
			b, okB := summarize(rb, m.Name)
			if !okA || !okB {
				continue
			}
			status := verdict(m, a, b)
			if status == "worse" {
				good = false
			}
			fmt.Fprintf(w, "%-12s %-24s %10.4g %10.4g..%-9.4g %10.4g %10.4g..%-9.4g %7.3f %6.2f %s\n",
				wd.Name, m.Name, a.med, a.q1, a.q3, b.med, b.q1, b.q3, b.med/a.med, m.Bound, status)
		}
	}

	// Bit-for-bit part: runs of the same inputs must agree exactly.
	for _, ra := range fa.Runs {
		for _, rb := range fb.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Traced != rb.Traced {
				continue
			}
			for _, op := range sortedKeys(ra.Hashes) {
				if hb, ok := rb.Hashes[op]; ok && hb != ra.Hashes[op] {
					fmt.Fprintf(w, "%s seed %d: result hash of %s differs: %s vs %s\n", ra.Workload, ra.Seed, op, ra.Hashes[op], hb)
					good = false
				}
			}
			for _, m := range perLayer {
				va, okA := ra.Metrics[m.Name]
				vb, okB := rb.Metrics[m.Name]
				if m.Exact && okA && okB && va.Median != vb.Median {
					fmt.Fprintf(w, "%s seed %d: exact counter %s differs: %v vs %v\n", ra.Workload, ra.Seed, m.Name, va.Median, vb.Median)
					good = false
				}
			}
		}
	}
	return good, nil
}
