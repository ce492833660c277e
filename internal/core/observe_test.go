package core

import (
	"runtime"
	"strings"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/report"
	"mwmerge/internal/vldi"
)

// fullObservedConfig is a small engine with every optimization and both
// parallelism knobs on, plus a recorder — the richest instrumentation
// surface the engine has.
func fullObservedConfig(rec *report.Recorder) Config {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.Merge.MergeWorkers = 2
	codec, _ := vldi.NewCodec(6)
	cfg.VectorCodec = codec
	cfg.MatrixCodec = codec
	h := testHDNConfig()
	cfg.HDN = &h
	cfg.Recorder = rec
	return cfg
}

// TestReportTotalsMatchLedger is the acceptance-criteria invariant: the
// sum of a report's per-iteration counter deltas must equal the engine's
// cumulative traffic ledger and statistics exactly — not approximately.
func TestReportTotalsMatchLedger(t *testing.T) {
	a, err := graph.Zipf(2000, 6, 1.8, 41)
	if err != nil {
		t.Fatal(err)
	}
	rec := report.NewRecorder()
	eng, err := New(fullObservedConfig(rec))
	if err != nil {
		t.Fatal(err)
	}
	x0 := randomX(2000, 42)
	if _, err := eng.Iterate(a, x0, IterateOptions{Iterations: 3, Overlap: true}); err != nil {
		t.Fatal(err)
	}
	// A standalone SpMV on the same engine adds one more snapshot.
	if _, err := eng.SpMV(a, x0, nil); err != nil {
		t.Fatal(err)
	}

	rep := rec.Build(report.Meta{Workload: "ledger-check"})
	if len(rep.Iterations) != 4 {
		t.Fatalf("%d iteration snapshots, want 4", len(rep.Iterations))
	}
	got := rep.Totals
	st := eng.Stats()
	if got != st {
		t.Errorf("report totals differ from the engine's account:\n%+v\n%+v", got, st)
	}
	if st.HDNRecords == 0 || st.VecCompressedBytes == 0 {
		t.Error("workload did not exercise HDN/VLDI — the check above proves nothing")
	}
}

// TestRecorderLanes checks the documented span lanes all appear on a
// fully-featured overlapped iterative run.
func TestRecorderLanes(t *testing.T) {
	a, err := graph.ErdosRenyi(2000, 4, 43)
	if err != nil {
		t.Fatal(err)
	}
	rec := report.NewRecorder()
	eng, err := New(fullObservedConfig(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Iterate(a, randomX(2000, 44), IterateOptions{Iterations: 3, Overlap: true}); err != nil {
		t.Fatal(err)
	}

	rep := rec.Build(report.Meta{})
	lanes := map[string]bool{}
	for _, l := range rep.Lanes {
		lanes[l.Lane] = true
	}
	for _, want := range []string{"phase", "iter", "its"} {
		if !lanes[want] {
			t.Errorf("lane %q missing; have %v", want, rep.Lanes)
		}
	}
	// Worker lanes carry whichever goroutine the scheduler handed each
	// task, so only the prefixes and the id bounds are deterministic.
	hasPrefix := map[string]bool{}
	for lane := range lanes {
		for _, p := range []string{"step1/w", "merge/g"} {
			if n, ok := strings.CutPrefix(lane, p); ok {
				hasPrefix[p] = true
				bound := map[string]string{"step1/w": "4", "merge/g": "2"}[p]
				if len(n) != 1 || n >= bound {
					t.Errorf("lane %q: worker id out of range [0,%s)", lane, bound)
				}
			}
		}
	}
	for _, p := range []string{"step1/w", "merge/g"} {
		if !hasPrefix[p] {
			t.Errorf("no %s* lane recorded; have %v", p, rep.Lanes)
		}
	}
	// The overlap lane records one window per iteration after the first.
	var itsLane report.Lane
	for _, l := range rep.Lanes {
		if l.Lane == "its" {
			itsLane = l
		}
	}
	if itsLane.Spans != 2 {
		t.Errorf("its lane has %d spans, want 2 for 3 overlapped iterations", itsLane.Spans)
	}
}

// TestStep1WorkerLanes holds the step-1 worker count to its rule: Workers
// 0 runs min(GOMAXPROCS, stripes) workers, each of which runs at least
// one stripe and so opens its step1/w<i> lane, and Workers 1 runs one.
// GOMAXPROCS is set per case, so the rule is checked on any host.
func TestStep1WorkerLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		dim        uint64 // 128-wide stripes
		workers    int
		gomaxprocs int
		want       int
	}{
		{2000, 0, 3, 3},
		{2000, 0, 1, 1},
		{256, 0, 3, 2},
		{2000, 1, 3, 1},
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.gomaxprocs)
		a, err := graph.ErdosRenyi(c.dim, 4, 48)
		if err != nil {
			t.Fatal(err)
		}
		rec := report.NewRecorder()
		cfg := testConfig()
		cfg.Workers, cfg.Recorder = c.workers, rec
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SpMV(a, randomX(c.dim, 49), nil); err != nil {
			t.Fatal(err)
		}
		var lanes []string
		for _, l := range rec.Build(report.Meta{}).Lanes {
			if strings.HasPrefix(l.Lane, "step1/w") {
				lanes = append(lanes, l.Lane)
			}
		}
		if len(lanes) != c.want {
			t.Errorf("dim %d, Workers %d, GOMAXPROCS %d: step-1 lanes %v, want %d",
				c.dim, c.workers, c.gomaxprocs, lanes, c.want)
		}
	}
}

// TestRecorderOffIsBitIdentical proves the disabled (nil) recorder
// changes nothing: result vectors, the traffic ledger, and RunStats are
// bit-identical with and without instrumentation, for both plain and
// iterative runs.
func TestRecorderOffIsBitIdentical(t *testing.T) {
	a, err := graph.Zipf(2000, 6, 1.8, 45)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(2000, 46)

	plain, err := New(fullObservedConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := New(fullObservedConfig(report.NewRecorder()))
	if err != nil {
		t.Fatal(err)
	}

	run := func(e *Engine) (r IterateResult) {
		r, err := e.Iterate(a, x, IterateOptions{Iterations: 3, Damping: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rp, ro := run(plain), run(observed)
	if d := rp.X.MaxAbsDiff(ro.X); d != 0 {
		t.Errorf("results differ by %g with recorder on", d)
	}
	if plain.Traffic() != observed.Traffic() {
		t.Errorf("traffic ledgers differ:\n%v\n%v", plain.Traffic(), observed.Traffic())
	}
	if sp, so := plain.Stats(), observed.Stats(); sp != so {
		t.Errorf("stats differ:\n%+v\n%+v", sp, so)
	}
}

// TestResetCountersResetsSnapshotBase ensures a reset engine's next
// snapshot records a fresh delta rather than a negative-wrapped one.
func TestResetCountersResetsSnapshotBase(t *testing.T) {
	a := graph.Diagonal(200, 2)
	rec := report.NewRecorder()
	cfg := testConfig()
	cfg.Recorder = rec
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := randomX(200, 47)
	if _, err := eng.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	eng.ResetCounters()
	if _, err := eng.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	rep := rec.Build(report.Meta{})
	if len(rep.Iterations) != 2 {
		t.Fatalf("%d snapshots, want 2", len(rep.Iterations))
	}
	first, second := rep.Iterations[0].Counters, rep.Iterations[1].Counters
	if first != second {
		t.Errorf("identical runs recorded different deltas:\n%+v\n%+v", first, second)
	}
}
