package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mwmerge/internal/mem"
)

// TestNilRecorderIsInert proves every hook is a no-op on a nil
// recorder — the property that lets the engine thread instrumentation
// unconditionally and stay bit-identical when observability is off.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Error("nil Now() != 0")
	}
	sp := r.StartSpan("lane", "x")
	sp.End() // must not panic
	r.AddSpan("lane", "x", 0, 5)
	r.StartSpan("lane", "x").End()
	r.RecordIteration("it", Counters{Products: 1})
	if got := len(r.Timeline().Spans()); got != 0 {
		t.Errorf("nil recorder recorded %d spans", got)
	}
	rep := r.Build(Meta{Workload: "none"})
	if len(rep.Lanes) != 0 || len(rep.Iterations) != 0 {
		t.Errorf("nil recorder built non-empty report: %+v", rep)
	}
	if rep.Totals.Products != 0 {
		t.Error("nil recorder accumulated counters")
	}
}

func TestSpansAndLanes(t *testing.T) {
	r := NewRecorder()
	r.AddSpan("merge/g0", "mc0", 0, 100)
	r.AddSpan("merge/g0", "mc2", 100, 200)
	r.AddSpan("merge/g1", "mc1", 0, 50)
	// Degenerate span clamps to 1 ns instead of vanishing.
	r.AddSpan("blip", "b", 10, 10)

	rep := r.Build(Meta{})
	byLane := map[string]Lane{}
	for _, l := range rep.Lanes {
		byLane[l.Lane] = l
	}
	if l := byLane["merge/g0"]; l.Spans != 2 || l.BusyNS != 200 {
		t.Errorf("merge/g0 lane = %+v", l)
	}
	if l := byLane["blip"]; l.Spans != 1 || l.BusyNS != 1 {
		t.Errorf("clamped span lane = %+v", l)
	}
	g0 := byLane["merge/g0"].Utilization
	g1 := byLane["merge/g1"].Utilization
	if g0 != 1.0 {
		t.Errorf("merge/g0 utilization %g, want 1", g0)
	}
	if g1 != 0.25 {
		t.Errorf("merge/g1 utilization %g, want 0.25", g1)
	}
}

func TestIterationDeltasSumToTotals(t *testing.T) {
	r := NewRecorder()
	a := Counters{
		Traffic:  mem.Traffic{MatrixBytes: 100, ResultBytes: 10},
		Products: 7, MergeInjected: 3,
	}
	b := Counters{
		Traffic:              mem.Traffic{MatrixBytes: 50, IntermediateRead: 20},
		TransitionBytesSaved: 40, Products: 5,
	}
	r.RecordIteration("iter", a)
	r.RecordIteration("iter", b)

	rep := r.Build(Meta{Workload: "sum-check"})
	if len(rep.Iterations) != 2 {
		t.Fatalf("%d iterations recorded", len(rep.Iterations))
	}
	want := a.Add(b)
	if got := rep.Totals; got != want {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
	if rep.Totals.Traffic.MatrixBytes != 150 || rep.Totals.Traffic.Total() != 180 {
		t.Errorf("marshalled totals = %+v", rep.Totals.Traffic)
	}
	if rep.Iterations[1].Counters.TransitionBytesSaved != 40 {
		t.Errorf("iteration 1 delta = %+v", rep.Iterations[1].Counters)
	}
}

func TestCountersSubAddRoundTrip(t *testing.T) {
	a := Counters{
		Traffic:              mem.Traffic{MatrixBytes: 9, SourceVectorBytes: 8, IntermediateWrite: 7, IntermediateRead: 6, ResultBytes: 5, WastageBytes: 4},
		TransitionBytesSaved: 3, Products: 2, IntermediateRecords: 1,
		HDNRecords: 11, HDNFalseRouted: 12,
		VecCompressedBytes: 13, VecUncompressedBytes: 14,
		MatCompressedBytes: 15, MatUncompressedBytes: 16,
		MergeInjected: 17, MergeEmitted: 18,
	}
	b := Counters{Traffic: mem.Traffic{MatrixBytes: 2}, Products: 1, MergeEmitted: 9}
	// every holds a distinct nonzero value in every counter, so a field
	// that Add or Sub leaves out cannot round-trip.
	var every Counters
	next := uint64(100)
	fillDistinct(t, reflect.ValueOf(&every).Elem(), &next)
	for _, c := range []struct{ a, b Counters }{{a, b}, {every, b}, {a, every}} {
		if got := c.a.Add(c.b).Sub(c.b); got != c.a {
			t.Errorf("Add/Sub round trip: %+v != %+v", got, c.a)
		}
	}
}

// fillDistinct sets every uint64 field of the struct v, nested structs
// included, to the next value of *next; a field of any other kind fails
// the test, since it would stay zero.
func fillDistinct(t *testing.T, v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Uint64:
		v.SetUint(*next)
		*next++
	default:
		t.Fatalf("cannot fill a %s counter", v.Type())
	}
}

// TestJSONSchema pins the documented key names of the JSON report, so
// DESIGN.md §8 and the renderer cannot drift silently.
func TestJSONSchema(t *testing.T) {
	r := NewRecorder()
	r.AddSpan("step1/w0", "s0", 0, 10)
	r.RecordIteration("spmv", Counters{Traffic: mem.Traffic{MatrixBytes: 64}, Products: 4})
	rep := r.Build(Meta{Workload: "schema", Rows: 8, Cols: 8, NNZ: 16, MergeCores: 16})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"meta", "wall_ns", "lanes", "iterations", "totals"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("top-level key %q missing", key)
		}
	}
	for _, key := range []string{
		`"workload": "schema"`, `"lane": "step1/w0"`, `"utilization"`,
		`"matrix_bytes": 64`, `"total_bytes": 64`, `"products": 4`,
		`"transition_bytes_saved"`, `"merge_injected"`, `"vldi_vector_compressed_bytes"`,
	} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON lacks %s:\n%s", key, buf.String())
		}
	}
}

// TestPrometheusFormat checks the exposition text: HELP/TYPE headers
// precede every metric family and the documented names appear with the
// expected label sets and values.
func TestPrometheusFormat(t *testing.T) {
	r := NewRecorder()
	r.AddSpan("merge/g0", "mc0", 0, 80)
	r.AddSpan("iter", "i0", 0, 100)
	r.RecordIteration("iter", Counters{
		Traffic:              mem.Traffic{MatrixBytes: 1024, ResultBytes: 8},
		TransitionBytesSaved: 256,
		MergeInjected:        5,
	})
	rep := r.Build(Meta{})

	var buf bytes.Buffer
	if err := rep.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`mwmerge_traffic_bytes_total{category="matrix"} 1024`,
		`mwmerge_traffic_bytes_total{category="result"} 8`,
		`mwmerge_transition_saved_bytes_total 256`,
		`mwmerge_merge_injected_total 5`,
		`mwmerge_iterations_total 1`,
		`mwmerge_lane_utilization{lane="merge/g0"} 0.8`,
		"# TYPE mwmerge_traffic_bytes_total counter",
		"# TYPE mwmerge_lane_utilization gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestConcurrentRecorder hammers spans and iteration records from many
// goroutines; run under -race it proves the recorder's thread safety
// once step-1 workers and merge cores all emit into one recorder.
func TestConcurrentRecorder(t *testing.T) {
	r := NewRecorder()
	const goroutines = 8
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := fmt.Sprintf("w%d", g)
			for i := 0; i < perG; i++ {
				r.StartSpan(lane, "t").End()
				r.RecordIteration("it", Counters{Products: 1})
			}
		}(g)
	}
	wg.Wait()
	rep := r.Build(Meta{})
	if got := rep.Totals.Products; got != goroutines*perG {
		t.Errorf("products total %d, want %d", got, goroutines*perG)
	}
	if got := len(r.Timeline().Spans()); got != goroutines*perG {
		t.Errorf("%d spans, want %d", got, goroutines*perG)
	}
}

// TestGanttDelegation keeps the recorder's Gantt wired to the timeline.
func TestGanttDelegation(t *testing.T) {
	r := NewRecorder()
	r.AddSpan("phase", "s1", 0, 10)
	var buf bytes.Buffer
	if err := r.Gantt(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "phase") {
		t.Errorf("Gantt missing lane:\n%s", buf.String())
	}
}
