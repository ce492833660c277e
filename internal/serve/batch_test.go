package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
)

// newBatchPool builds a pool with request coalescing enabled.
func newBatchPool(t *testing.T, a *matrix.COO, size, maxBatch int, window time.Duration) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{
		Name: "g", Matrix: a, Engine: testEngineConfig(),
		Size: size, MaxQueue: 64,
		MaxBatch: maxBatch, BatchWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolBatchConfig pins the batching knobs' validation and defaults.
func TestPoolBatchConfig(t *testing.T) {
	a := testGraph(t, 256, 3, 5)
	if _, err := NewPool(PoolConfig{Name: "g", Matrix: a, Engine: testEngineConfig(), MaxBatch: -1}); err == nil {
		t.Error("negative MaxBatch accepted")
	}
	if _, err := NewPool(PoolConfig{Name: "g", Matrix: a, Engine: testEngineConfig(), BatchWindow: -time.Second}); err == nil {
		t.Error("negative BatchWindow accepted")
	}
	for _, mb := range []int{0, 1} {
		p, err := NewPool(PoolConfig{Name: "g", Matrix: a, Engine: testEngineConfig(), MaxBatch: mb})
		if err != nil {
			t.Fatal(err)
		}
		if p.Batching() {
			t.Errorf("MaxBatch=%d enabled batching", mb)
		}
		if _, ok := p.BatchStats(); ok {
			t.Errorf("MaxBatch=%d reported batch stats", mb)
		}
	}
	p := newBatchPool(t, a, 1, 4, 0)
	if !p.Batching() {
		t.Error("MaxBatch=4 did not enable batching")
	}
	if p.batch.window != 2*time.Millisecond {
		t.Errorf("default window = %v, want 2ms", p.batch.window)
	}
}

// TestBatchedMatchesUnbatched fires exactly MaxBatch concurrent requests
// — the deterministic count-triggered flush — and checks the coalesced
// path end to end: every response is bit-identical to a fresh-engine
// SpMV, the pool ledger equals one direct SpMVBlock run (the matrix
// streamed once for the whole flush), and the flush/occupancy counters
// record one 4-wide batch.
func TestBatchedMatchesUnbatched(t *testing.T) {
	const k = 4
	a := testGraph(t, 512, 4, 31)
	p := newBatchPool(t, a, 2, k, time.Hour) // only the count trigger may flush
	s, err := NewServer(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	xs := make([]vector.Dense, k)
	want := make([]vector.Dense, k)
	for i := range xs {
		xs[i] = testX(a.Cols, int64(60+i))
		e, err := core.New(testEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = e.SpMV(a, xs[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]vector.Dense, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = postSpMV(ts.URL, map[string]any{"matrix": "g", "x": xs[i]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if d := got[i].MaxAbsDiff(want[i]); d != 0 {
			t.Errorf("request %d diverged from unbatched SpMV by %g", i, d)
		}
	}

	// The pool ledger must equal one block run over the same columns
	// (the batch's column order is arrival order, but ledger totals are
	// order-invariant sums).
	ref, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.SpMVBlock(a, xs, nil); err != nil {
		t.Fatal(err)
	}
	ledger, served := p.Ledger()
	if served != k {
		t.Errorf("served = %d, want %d", served, k)
	}
	if ledger != ref.Counters() {
		t.Errorf("pool ledger != one SpMVBlock run:\n got  %+v\n want %+v", ledger, ref.Counters())
	}

	st, ok := p.BatchStats()
	if !ok {
		t.Fatal("batching pool reported no stats")
	}
	if st.Flushes != 1 || st.Requests != k {
		t.Errorf("flushes=%d requests=%d, want 1 flush of %d", st.Flushes, st.Requests, k)
	}
	if st.Occupancy[2] != 1 { // bucket le=4
		t.Errorf("occupancy = %v, want one flush in the le=4 bucket", st.Occupancy)
	}
}

// TestBatchWindowFlush exercises the timer path: a lone request must be
// served when its window expires, and a second lone request must re-arm
// the same timer.
func TestBatchWindowFlush(t *testing.T) {
	a := testGraph(t, 256, 3, 37)
	p := newBatchPool(t, a, 1, 8, 2*time.Millisecond)
	e, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		x := testX(a.Cols, int64(70+round))
		want, err := e.SpMV(a, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		y, _, err := p.batch.submit(context.Background(), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := y.MaxAbsDiff(want); d != 0 {
			t.Errorf("round %d: window-flushed result differs by %g", round, d)
		}
		st, _ := p.BatchStats()
		if st.Flushes != uint64(round) || st.Requests != uint64(round) {
			t.Errorf("round %d: flushes=%d requests=%d", round, st.Flushes, st.Requests)
		}
	}
}

// TestBatchDeadlineMidWindow is the poisoning check: a request whose
// deadline expires while it waits in an open batch window gets 503, and
// the batch it was queued into still serves every live request with
// correct results. The sequencing is deterministic: the doomed request
// arms a one-hour window, we wait for its 503, then exactly enough live
// requests arrive to trip the count trigger (the expired request still
// occupies its batch slot, so live+1 = MaxBatch).
func TestBatchDeadlineMidWindow(t *testing.T) {
	const maxBatch = 4
	a := testGraph(t, 512, 4, 41)
	p := newBatchPool(t, a, 1, maxBatch, time.Hour)
	s, err := NewServer(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The doomed request: 5ms deadline against a one-hour window.
	status, _, err := soakPost(ts.URL+"/v1/spmv",
		map[string]any{"matrix": "g", "x": testX(a.Cols, 80), "deadline_ms": 5})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("expired-in-window request: status %d, want 503", status)
	}

	// Three live requests complete the batch; the flush must skip the
	// expired slot and serve all three bit-exactly.
	const live = maxBatch - 1
	got := make([]vector.Dense, live)
	want := make([]vector.Dense, live)
	errs := make([]error, live)
	var wg sync.WaitGroup
	for i := 0; i < live; i++ {
		x := testX(a.Cols, int64(90+i))
		e, err := core.New(testEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = e.SpMV(a, x, nil); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, x vector.Dense) {
			defer wg.Done()
			got[i], errs[i] = postSpMV(ts.URL, map[string]any{"matrix": "g", "x": x})
		}(i, x)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("live request %d: %v", i, errs[i])
		}
		if d := got[i].MaxAbsDiff(want[i]); d != 0 {
			t.Errorf("live request %d poisoned by the expired batchmate: diverged by %g", i, d)
		}
	}
	st, _ := p.BatchStats()
	if st.Flushes != 1 || st.Requests != live {
		t.Errorf("flushes=%d requests=%d, want one flush of %d live requests", st.Flushes, st.Requests, live)
	}
	_, served := p.Ledger()
	if served != live {
		t.Errorf("ledger served=%d, want %d (the expired request must not count)", served, live)
	}
}

// TestBatchedQueueBound pins admission on a coalescing pool: with every
// member held, Size·MaxBatch + MaxQueue requests are admitted (their
// flushes wait for a member), the next one is rejected 429 before it can
// join a window, and once the members return every admitted request is
// answered bit-exactly and the pool is whole again.
func TestBatchedQueueBound(t *testing.T) {
	const size, maxBatch, maxQueue = 2, 2, 1
	const bound = size*maxBatch + maxQueue
	a := testGraph(t, 256, 3, 53)
	p, err := NewPool(PoolConfig{
		Name: "g", Matrix: a, Engine: testEngineConfig(),
		Size: size, MaxQueue: maxQueue, MaxBatch: maxBatch, BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var releases []func()
	for i := 0; i < size; i++ {
		releases = append(releases, holdEngine(t, p))
	}

	xs := make([]vector.Dense, bound)
	got := make([]vector.Dense, bound)
	errs := make([]error, bound)
	var wg sync.WaitGroup
	for i := range xs {
		xs[i] = testX(a.Cols, int64(300+i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = postSpMV(ts.URL, map[string]any{"matrix": "g", "x": xs[i]})
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); len(p.batch.admit) < bound; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", len(p.batch.admit), bound)
		}
		time.Sleep(time.Millisecond)
	}

	status, body, err := soakPost(ts.URL+"/v1/spmv", map[string]any{"matrix": "g", "x": xs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("request past the bound: status %d, want 429 (%s)", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `mwmerge_serve_rejected_total{reason="queue_full"} 1`; !strings.Contains(string(raw), want) {
		t.Errorf("/metrics missing %q", want)
	}

	for _, release := range releases {
		release()
	}
	wg.Wait()
	e, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("admitted request %d: %v", i, errs[i])
		}
		want, err := e.SpMV(a, xs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := got[i].MaxAbsDiff(want); d != 0 {
			t.Errorf("admitted request %d diverged by %g", i, d)
		}
	}
	if len(p.batch.admit) != 0 || len(p.idle) != size {
		t.Errorf("after drain: %d admission tokens held, %d of %d members idle", len(p.batch.admit), len(p.idle), size)
	}
}

// TestBatchMetricsExposition pins the /metrics batch surface after a
// deterministic single flush: the flush and batched-request totals and
// the cumulative occupancy histogram with its _sum and _count.
func TestBatchMetricsExposition(t *testing.T) {
	const k = 2
	a := testGraph(t, 256, 3, 43)
	p := newBatchPool(t, a, 1, k, time.Hour)
	s, err := NewServer(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = postSpMV(ts.URL, map[string]any{"matrix": "g", "x": testX(a.Cols, int64(100+i))})
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`mwmerge_serve_batch_flushes_total{pool="g"} 1`,
		`mwmerge_serve_batched_requests_total{pool="g"} 2`,
		`mwmerge_serve_batch_occupancy_bucket{pool="g",le="1"} 0`,
		`mwmerge_serve_batch_occupancy_bucket{pool="g",le="2"} 1`,
		`mwmerge_serve_batch_occupancy_bucket{pool="g",le="16"} 1`,
		`mwmerge_serve_batch_occupancy_bucket{pool="g",le="+Inf"} 1`,
		`mwmerge_serve_batch_occupancy_sum{pool="g"} 2`,
		`mwmerge_serve_batch_occupancy_count{pool="g"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServeSoakBatched is the coalescing soak: six clients hammer one
// matrix in lock-stepped rounds sized to the batch width, so every round
// is one deterministic 6-wide flush. Afterwards the aggregated pool
// ledger must show the matrix was streamed once per ROUND — not once per
// request — while every individual response stayed bit-identical to an
// unbatched fresh-engine run.
func TestServeSoakBatched(t *testing.T) {
	const (
		n       = 512
		clients = 6
		rounds  = 4
	)
	a := testGraph(t, n, 5, 47)
	p := newBatchPool(t, a, 2, clients, time.Hour)
	s, err := NewServer(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Single-run matrix share, for the amortization assertion below.
	single, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.SpMV(a, testX(a.Cols, 1), nil); err != nil {
		t.Fatal(err)
	}
	matrixShare := single.Counters().Traffic.MatrixBytes

	var wantLedger report.Counters
	for round := 0; round < rounds; round++ {
		xs := make([]vector.Dense, clients)
		want := make([]vector.Dense, clients)
		for c := range xs {
			xs[c] = testX(a.Cols, int64(200+round*clients+c))
			e, err := core.New(testEngineConfig())
			if err != nil {
				t.Fatal(err)
			}
			if want[c], err = e.SpMV(a, xs[c], nil); err != nil {
				t.Fatal(err)
			}
		}
		// Reference ledger: one block run per round (totals are
		// column-order invariant, so arrival order does not matter).
		ref, err := core.New(testEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.SpMVBlock(a, xs, nil); err != nil {
			t.Fatal(err)
		}
		wantLedger = wantLedger.Add(ref.Counters())

		got := make([]vector.Dense, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := range xs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				got[c], errs[c] = postSpMV(ts.URL, map[string]any{"matrix": "g", "x": xs[c]})
			}(c)
		}
		wg.Wait()
		for c := range got {
			if errs[c] != nil {
				t.Fatalf("round %d client %d: %v", round, c, errs[c])
			}
			if d := got[c].MaxAbsDiff(want[c]); d != 0 {
				t.Errorf("round %d client %d diverged from unbatched run by %g", round, c, d)
			}
		}
	}

	ledger, served := p.Ledger()
	if served != clients*rounds {
		t.Fatalf("served = %d, want %d", served, clients*rounds)
	}
	if ledger != wantLedger {
		t.Fatalf("aggregated ledger != %d block runs:\n got  %+v\n want %+v", rounds, ledger, wantLedger)
	}
	// The amortization proof: the matrix was streamed once per round,
	// not once per request.
	if got, want := ledger.Traffic.MatrixBytes, uint64(rounds)*matrixShare; got != want {
		t.Errorf("matrix bytes = %d, want %d (streamed once per %d-wide flush)", got, want, clients)
	}
	if got, full := ledger.Traffic.MatrixBytes, uint64(clients*rounds)*matrixShare; got >= full {
		t.Errorf("matrix bytes = %d, not amortized below the %d unbatched streams (%d)", got, clients*rounds, full)
	}
	st, _ := p.BatchStats()
	if st.Flushes != rounds || st.Requests != clients*rounds {
		t.Errorf("flushes=%d requests=%d, want %d flushes of %d", st.Flushes, st.Requests, rounds, clients)
	}
}

// postSpMV posts one /v1/spmv request and decodes the result vector.
func postSpMV(base string, body map[string]any) (vector.Dense, error) {
	status, raw, err := soakPost(base+"/v1/spmv", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, raw)
	}
	var out struct {
		Y vector.Dense `json:"y"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out.Y, nil
}
