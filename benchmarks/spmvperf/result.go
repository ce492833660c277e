package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricValue is one reported metric: the median of its samples with
// their quartiles and count. A derived value is a single sample.
type metricValue struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Hashes are the result fingerprints (FNV over the output bits) by
	// operation, so two commits can be compared bit for bit.
	Hashes map[string]string `json:"hashes"`
	// Notes are counts reported beside a metric without being one, such
	// as the exact PageRank iteration count next to pagerank_ms_per_iter.
	Notes map[string]float64 `json:"notes,omitempty"`
}

func newRunResult(workload string, opt options) *runResult {
	return &runResult{
		Workload: workload,
		Seed:     opt.seed,
		Traced:   opt.traced,
		Seconds:  opt.seconds,
		Metrics:  make(map[string]metricValue),
		Hashes:   make(map[string]string),
		Notes:    make(map[string]float64),
	}
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := make(map[string]string)
	for _, m := range endToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		u[m.Name] = m.Unit
	}
	return u
}()

// samples records a metric from its per-repetition samples.
func (r *runResult) samples(name string, v []float64) {
	q1, med, q3 := quartiles(v)
	r.Metrics[name] = metricValue{Unit: units[name], N: len(v), Median: med, Q1: q1, Q3: q3}
}

// value records a derived or counted metric.
func (r *runResult) value(name string, v float64) { r.samples(name, []float64{v}) }

// op accounts one checked operation; a failed one is kept with its
// description and fails the run.
func (r *runResult) op(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failure without counting a new attempt.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 32 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// hash stores the fingerprint of an operation's first result.
func (r *runResult) hash(op string, h uint64) { r.Hashes[op] = fmt.Sprintf("%016x", h) }

// checkComplete fails the run unless exactly the declared metrics of
// its mode were produced, each a finite number.
func (r *runResult) checkComplete() {
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	declared := make(map[string]bool, len(want))
	for _, m := range want {
		declared[m.Name] = true
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			r.fail("metric %s was not produced", m.Name)
		case math.IsNaN(v.Median) || math.IsInf(v.Median, 0):
			r.fail("metric %s is %v", m.Name, v.Median)
		}
	}
	for _, name := range sortedKeys(r.Metrics) {
		if !declared[name] {
			r.fail("metric %s is not declared", name)
		}
	}
}

// print writes the human-readable table of the run.
func (r *runResult) print(w io.Writer) {
	mode := "untraced, end-to-end"
	if r.Traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  (%.0f s)\n", r.Workload, r.Seed, mode, r.Seconds)
	fmt.Fprintf(w, "%-34s %-6s %5s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-34s %-6s %5d %14.6g %14.6g %14.6g\n", name, m.Unit, m.N, m.Median, m.Q1, m.Q3)
	}
	for _, name := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "note %-29s %g\n", name, r.Notes[name])
	}
	for _, op := range sortedKeys(r.Hashes) {
		fmt.Fprintf(w, "hash %-29s %s\n", op, r.Hashes[op])
	}
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
