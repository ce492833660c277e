package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// testEngineConfig mirrors the core package's test design point: segment
// width 128, capacity 64×128 = 8192 (ITS capacity 4096).
func testEngineConfig() core.Config {
	return core.Config{
		ScratchpadBytes: 1024,
		ValueBytes:      8,
		MetaBytes:       8,
		Lanes:           4,
		Merge:           prap.Config{Q: 2, Ways: 64, FIFODepth: 4, DPage: 256, RecordBytes: 16},
		HBM:             mem.DefaultHBM(),
	}
}

func testGraph(t *testing.T, n uint64, deg float64, seed int64) *matrix.COO {
	t.Helper()
	a, err := graph.ErdosRenyi(n, deg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testX(n uint64, seed int64) vector.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := vector.NewDense(int(n))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func newTestPool(t *testing.T, name string, a *matrix.COO, size, maxQueue int) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{Name: name, Matrix: a, Engine: testEngineConfig(), Size: size, MaxQueue: maxQueue})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// holdEngine checks the pool's engine out and keeps it busy until the
// returned release func is called. It waits for the hold to be in place
// before returning, so subsequent admissions observe a busy pool.
func holdEngine(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.Do(context.Background(), func(eng *core.Engine) error {
			close(started)
			<-gate
			return nil
		})
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("holder never got the engine: %v", err)
	}
	return func() {
		close(gate)
		if err := <-done; err != nil {
			t.Fatalf("holder: %v", err)
		}
	}
}

func TestPoolQueueFullRejection(t *testing.T) {
	p := newTestPool(t, "g", testGraph(t, 256, 4, 1), 1, 0)
	release := holdEngine(t, p)
	defer release()
	err := p.Do(context.Background(), func(eng *core.Engine) error { return nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
}

func TestPoolDeadlineRejection(t *testing.T) {
	p := newTestPool(t, "g", testGraph(t, 256, 4, 1), 1, 2)
	release := holdEngine(t, p)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := p.Do(ctx, func(eng *core.Engine) error { return nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	release()

	// A context already expired at admission is rejected even when an
	// engine is idle: the request's deadline has passed, so no work may
	// start on its behalf.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	err = p.Do(expired, func(eng *core.Engine) error { return nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired context: got %v, want ErrDeadline", err)
	}
}

func TestPoolQueuedRequestRunsAfterRelease(t *testing.T) {
	p := newTestPool(t, "g", testGraph(t, 256, 4, 1), 1, 1)
	release := holdEngine(t, p)
	ran := make(chan struct{})
	go func() {
		if err := p.Do(context.Background(), func(eng *core.Engine) error { return nil }); err != nil {
			t.Errorf("queued request: %v", err)
		}
		close(ran)
	}()
	// Give the queued request time to take its queue token, then free
	// the engine; the queued request must complete.
	time.Sleep(10 * time.Millisecond)
	release()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never ran after engine release")
	}
}

// TestPoolLedgerAggregation checks the published-snapshot ledger: k
// identical requests spread across pool members must sum to exactly k
// times the single-run delta a fresh engine reports.
func TestPoolLedgerAggregation(t *testing.T) {
	a := testGraph(t, 512, 5, 2)
	x := testX(512, 3)
	p := newTestPool(t, "g", a, 3, 0)

	ref, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	delta := ref.Counters()

	const k = 7
	var want report.Counters
	for i := 0; i < k; i++ {
		if err := p.Do(context.Background(), func(eng *core.Engine) error {
			_, err := eng.SpMV(a, x, nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		want = want.Add(delta)
	}
	got, n := p.Ledger()
	if n != k {
		t.Fatalf("ledger requests = %d, want %d", n, k)
	}
	if got != want {
		t.Fatalf("aggregated counters diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func newTestServer(t *testing.T, cfg Config, pools ...*Pool) *httptest.Server {
	t.Helper()
	s, err := NewServer(cfg, pools...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestServerSpMVMatchesEngine(t *testing.T) {
	a := testGraph(t, 700, 4, 4)
	x := testX(700, 5)
	yIn := testX(700, 6)
	ts := newTestServer(t, Config{}, newTestPool(t, "g", a, 2, 2))

	eng, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.SpMV(a, x, yIn)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/spmv", map[string]any{"matrix": "g", "x": x, "y_in": yIn})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Y vector.Dense `json:"y"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if d := out.Y.MaxAbsDiff(want); d != 0 {
		t.Fatalf("served y diverged from engine result by %g", d)
	}
}

func TestServerSpMSpVMatchesEngine(t *testing.T) {
	a := testGraph(t, 600, 5, 7)
	ts := newTestServer(t, Config{}, newTestPool(t, "g", a, 1, 1))

	keys := []uint64{3, 140, 300, 420, 599}
	vals := []float64{1.5, -2, 0.25, 4, -1}
	sx := vector.NewSparse(600, len(keys))
	for i, k := range keys {
		if err := sx.Append(types.Record{Key: k, Val: vals[i]}); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := eng.SpMSpV(a, sx)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/spmspv", map[string]any{"matrix": "g", "keys": keys, "vals": vals})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Y     vector.Dense     `json:"y"`
		Stats *spmspvStatsJSON `json:"spmspv_stats"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if d := out.Y.MaxAbsDiff(want); d != 0 {
		t.Fatalf("served y diverged from engine result by %g", d)
	}
	if out.Stats == nil || out.Stats.EntriesVisited != wantStats.EntriesVisited ||
		out.Stats.SegmentsActive != wantStats.SegmentsActive {
		t.Fatalf("served stats %+v, want %+v", out.Stats, wantStats)
	}
}

func TestServerPageRankMatchesEngine(t *testing.T) {
	a := testGraph(t, 500, 6, 8)
	ts := newTestServer(t, Config{}, newTestPool(t, "g", a, 1, 1))

	eng, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, wantIters, err := eng.PageRank(a, 0.85, 1e-9, 20, false)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/pagerank", map[string]any{"matrix": "g", "damping": 0.85, "tol": 1e-9, "max_iters": 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Y          vector.Dense `json:"y"`
		Iterations int          `json:"iterations"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if d := out.Y.MaxAbsDiff(want); d != 0 {
		t.Fatalf("served ranks diverged by %g", d)
	}
	if out.Iterations != wantIters {
		t.Fatalf("served %d iterations, engine ran %d", out.Iterations, wantIters)
	}
}

// TestServerPageRankExplicitZeros holds an explicit zero to its meaning:
// only an omitted damping, tol or max_iters takes the default, so "tol":
// 0 runs max_iters iterations and "damping": 0 serves the teleport-only
// ranks, each bit for bit as the engine computes them.
func TestServerPageRankExplicitZeros(t *testing.T) {
	a := testGraph(t, 500, 6, 8)
	ts := newTestServer(t, Config{}, newTestPool(t, "g", a, 1, 1))
	cases := []struct {
		name              string
		body              map[string]any
		damping, tol      float64
		maxIters, wantIts int
	}{
		{"tol-zero", map[string]any{"matrix": "g", "tol": 0, "max_iters": 3}, 0.85, 0, 3, 3},
		// Past the ~25 iterations the default tol would stop at.
		{"tol-zero-past-convergence", map[string]any{"matrix": "g", "tol": 0, "max_iters": 40}, 0.85, 0, 40, 40},
		// Every rank is 1/n from the start, so one iteration converges.
		{"damping-zero", map[string]any{"matrix": "g", "damping": 0}, 0, 1e-9, 50, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := core.New(testEngineConfig())
			if err != nil {
				t.Fatal(err)
			}
			want, wantIters, err := eng.PageRank(a, tc.damping, tc.tol, tc.maxIters, false)
			if err != nil {
				t.Fatal(err)
			}
			if wantIters != tc.wantIts {
				t.Fatalf("engine ran %d iterations, want %d", wantIters, tc.wantIts)
			}
			resp, body := postJSON(t, ts.URL+"/v1/pagerank", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out struct {
				Y          vector.Dense `json:"y"`
				Iterations int          `json:"iterations"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Iterations != wantIters {
				t.Fatalf("served %d iterations, engine ran %d", out.Iterations, wantIters)
			}
			if len(out.Y) != len(want) {
				t.Fatalf("served %d ranks, engine %d", len(out.Y), len(want))
			}
			for i := range want {
				if math.Float64bits(out.Y[i]) != math.Float64bits(want[i]) {
					t.Fatalf("rank %d: served %g, engine %g", i, out.Y[i], want[i])
				}
			}
		})
	}
}

// TestServerPageRankRejectsBadParams pins the answer to PageRank
// parameters the engine rejects: damping outside [0, 1], a negative
// tolerance or a non-positive iteration cap is a 400 with an error body,
// and the rejected request leaves the pool's ledger where it was.
func TestServerPageRankRejectsBadParams(t *testing.T) {
	a := testGraph(t, 300, 4, 16)
	p := newTestPool(t, "g", a, 1, 1)
	ts := newTestServer(t, Config{}, p)
	before, _ := p.Ledger()
	for name, body := range map[string]map[string]any{
		"damping-above-one":  {"matrix": "g", "damping": 1.5, "max_iters": 400},
		"damping-negative":   {"matrix": "g", "damping": -0.5},
		"tol-negative":       {"matrix": "g", "tol": -1},
		"max-iters-negative": {"matrix": "g", "max_iters": -1},
		"max-iters-zero":     {"matrix": "g", "max_iters": 0},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/pagerank", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", name, resp.StatusCode, raw)
		}
		var e errorResponse
		if err := json.Unmarshal(raw, &e); err != nil || !strings.HasPrefix(e.Error, "core: ") {
			t.Fatalf("%s: body %s does not carry the engine's error", name, raw)
		}
		if after, _ := p.Ledger(); after != before {
			t.Fatalf("%s: the rejected request moved the pool ledger:\n before %+v\n after  %+v", name, before, after)
		}
	}
}

func TestServerStatusCodes(t *testing.T) {
	// 5000 rows: within the 8192 engine capacity (so the pool warms),
	// above the 4096 ITS-overlap capacity (so overlap requests are
	// rejected at admission with 422).
	a := testGraph(t, 5000, 2, 9)
	p := newTestPool(t, "g", a, 1, 1)
	ts := newTestServer(t, Config{}, p)

	x := testX(5000, 10)
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown-matrix", "/v1/spmv", map[string]any{"matrix": "nope", "x": x}, http.StatusNotFound},
		{"wrong-dimension", "/v1/spmv", map[string]any{"matrix": "g", "x": []float64{1, 2}}, http.StatusBadRequest},
		{"negative-deadline", "/v1/spmv", map[string]any{"matrix": "g", "x": x, "deadline_ms": -1}, http.StatusBadRequest},
		{"keys-vals-mismatch", "/v1/spmspv", map[string]any{"matrix": "g", "keys": []uint64{1}, "vals": []float64{}}, http.StatusBadRequest},
		{"overlap-over-capacity", "/v1/iterate", map[string]any{"matrix": "g", "x0": x, "iterations": 2, "overlap": true}, http.StatusUnprocessableEntity},
		{"pagerank-overlap-over-capacity", "/v1/pagerank", map[string]any{"matrix": "g", "overlap": true}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("rejection carries no error body: %s", body)
			}
		})
	}

	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/v1/spmv", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// 429 when the single engine is held and the queue is full, 503 when
	// the request's deadline expires while queued.
	release := holdEngine(t, p)
	occupier := make(chan error, 1)
	go func() { // occupy the single queue slot for the duration
		occupier <- p.Do(context.Background(), func(eng *core.Engine) error { return nil })
	}()
	time.Sleep(10 * time.Millisecond)
	resp2, body2 := postJSON(t, ts.URL+"/v1/spmv", map[string]any{"matrix": "g", "x": x})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("busy pool: status %d, want 429 (%s)", resp2.StatusCode, body2)
	}
	release()
	// Drain the queued request so the pool is quiescent before the
	// deadline scenario below.
	if err := <-occupier; err != nil {
		t.Fatalf("queued occupier: %v", err)
	}

	release2 := holdEngine(t, p)
	resp3, body3 := postJSON(t, ts.URL+"/v1/spmv", map[string]any{"matrix": "g", "x": x, "deadline_ms": 20})
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued past deadline: status %d, want 503 (%s)", resp3.StatusCode, body3)
	}
	release2()
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestServerBodyDecode pins the request-body rules: trailing whitespace
// is accepted, any other trailing data is a 400, and a body one byte
// over maxBodyBytes is a 413 (streamed, so neither side holds it).
func TestServerBodyDecode(t *testing.T) {
	a := testGraph(t, 64, 2, 3)
	ts := newTestServer(t, Config{}, newTestPool(t, "g", a, 1, 1))
	raw, err := json.Marshal(map[string]any{"matrix": "g", "x": testX(64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	value := string(raw)
	cases := []struct {
		name   string
		body   io.Reader
		size   int64
		status int
	}{
		{"trailing-space", strings.NewReader(value + " \n\t\r\n"), -1, http.StatusOK},
		{"trailing-junk", strings.NewReader(value + " junk"), -1, http.StatusBadRequest},
		{"second-value", strings.NewReader(value + value), -1, http.StatusBadRequest},
		{"over-cap", io.MultiReader(strings.NewReader(value), io.LimitReader(spaces{}, maxBodyBytes+1-int64(len(value)))), maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/spmv", tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.size >= 0 {
				req.ContentLength = tc.size
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
		})
	}
}

// TestServerPerRequestReport checks the on-demand run report: its totals
// must be exactly the counter delta a fresh engine records for the same
// operation.
func TestServerPerRequestReport(t *testing.T) {
	a := testGraph(t, 512, 5, 11)
	x := testX(512, 12)
	ts := newTestServer(t, Config{}, newTestPool(t, "g", a, 1, 1))

	eng, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SpMV(a, x, nil); err != nil {
		t.Fatal(err)
	}
	want := report.NewReport(report.Meta{}, eng.Counters()).Totals

	resp, body := postJSON(t, ts.URL+"/v1/spmv", map[string]any{"matrix": "g", "x": x, "report": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Report *report.Report `json:"report"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Report == nil {
		t.Fatal("report requested but absent from response")
	}
	if out.Report.Totals != want {
		t.Fatalf("per-request report totals diverged:\ngot  %+v\nwant %+v", out.Report.Totals, want)
	}
	if !strings.Contains(out.Report.Meta.Workload, "spmv") || !strings.Contains(out.Report.Meta.Workload, "matrix=g") {
		t.Fatalf("report workload %q does not identify the request", out.Report.Meta.Workload)
	}
}

// TestServerMetricsMatchesLedger drives mixed requests over two pools
// and checks that /metrics renders exactly the aggregated pool ledger —
// the same Prometheus exposition a report built from the summed
// published snapshots produces — followed by the serving gauges.
func TestServerMetricsMatchesLedger(t *testing.T) {
	a1 := testGraph(t, 512, 5, 13)
	a2 := testGraph(t, 300, 4, 14)
	p1 := newTestPool(t, "g1", a1, 2, 1)
	p2 := newTestPool(t, "g2", a2, 1, 1)
	s, err := NewServer(Config{}, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x1 := testX(512, 15)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/spmv", map[string]any{"matrix": "g1", "x": x1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spmv: %d %s", resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/pagerank", map[string]any{"matrix": "g2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pagerank: %d %s", resp.StatusCode, body)
	}

	// The aggregated ledger must equal a direct engine rerun of the same
	// request mix.
	e1, _ := core.New(testEngineConfig())
	for i := 0; i < 3; i++ {
		if _, err := e1.SpMV(a1, x1, nil); err != nil {
			t.Fatal(err)
		}
	}
	e2, _ := core.New(testEngineConfig())
	if _, _, err := e2.PageRank(a2, 0.85, 1e-9, 50, false); err != nil {
		t.Fatal(err)
	}
	want := e1.Counters().Add(e2.Counters())
	if got := s.AggregatedLedger(); got != want {
		t.Fatalf("aggregated ledger diverged from direct engines:\ngot  %+v\nwant %+v", got, want)
	}

	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(scrape.Body); err != nil {
		t.Fatal(err)
	}
	scrape.Body.Close()
	bodyStr := buf.String()

	var expected bytes.Buffer
	if err := report.NewReport(report.Meta{Workload: "spmvd"}, want).WritePrometheus(&expected); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bodyStr, expected.String()) {
		t.Fatalf("/metrics does not open with the aggregated-ledger exposition:\n%s\n--- want prefix ---\n%s", bodyStr, expected.String())
	}
	for _, line := range []string{
		`mwmerge_serve_requests_total{pool="g1"} 3`,
		`mwmerge_serve_requests_total{pool="g2"} 1`,
		"mwmerge_serve_served_total 4",
		`mwmerge_serve_rejected_total{reason="queue_full"} 0`,
		`mwmerge_serve_pool_engines{pool="g1"} 2`,
	} {
		if !strings.Contains(bodyStr, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

func TestServerHealthz(t *testing.T) {
	a := testGraph(t, 256, 4, 16)
	ts := newTestServer(t, Config{}, newTestPool(t, "g", a, 2, 1))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Pools) != 1 {
		t.Fatalf("health %+v", h)
	}
	if h.Pools[0].Matrix != "g" || h.Pools[0].Rows != 256 || h.Pools[0].Engines != 2 {
		t.Fatalf("pool inventory %+v", h.Pools[0])
	}
}

func TestNewServerRejectsDuplicatePools(t *testing.T) {
	a := testGraph(t, 128, 3, 17)
	p1 := newTestPool(t, "g", a, 1, 0)
	p2 := newTestPool(t, "g", a, 1, 0)
	if _, err := NewServer(Config{}, p1, p2); err == nil {
		t.Fatal("duplicate pool names accepted")
	}
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("empty server accepted")
	}
}

// TestNewServerRejectsNegativeDeadline holds the server-wide default to
// the per-request rule (a negative deadline_ms is a 400): a negative
// default is a configuration error, not a server with no deadline.
func TestNewServerRejectsNegativeDeadline(t *testing.T) {
	p := newTestPool(t, "g", testGraph(t, 128, 3, 19), 1, 0)
	if _, err := NewServer(Config{DefaultDeadline: -time.Second}, p); err == nil {
		t.Fatal("negative default deadline accepted")
	}
	if _, err := NewServer(Config{DefaultDeadline: time.Second}, p); err != nil {
		t.Fatalf("positive default deadline rejected: %v", err)
	}
}

func TestNewPoolRejectsRecorder(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Recorder = report.NewRecorder()
	_, err := NewPool(PoolConfig{Name: "g", Matrix: testGraph(t, 128, 3, 18), Engine: cfg})
	if err == nil {
		t.Fatal("recorder-carrying pool config accepted")
	}
	if !strings.Contains(err.Error(), "recorder") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestServerNonFiniteResult checks that a result JSON cannot carry is
// answered 422 naming its first non-finite element, not 200 with an
// empty body, and is not counted as served; and that a finite result's
// body is exactly what json.Encoder writes for it.
func TestServerNonFiniteResult(t *testing.T) {
	a := testGraph(t, 700, 4, 4)
	s, err := NewServer(Config{}, newTestPool(t, "g", a, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	served := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.served
	}

	huge := make(vector.Dense, a.Cols)
	huge.Fill(math.MaxFloat64)
	for _, req := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/spmv", map[string]any{"matrix": "g", "x": huge}},
		{"/v1/iterate", map[string]any{"matrix": "g", "x0": testX(a.Cols, 5), "iterations": 2, "damping": 1e300}},
	} {
		resp, body := postJSON(t, ts.URL+req.path, req.body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, body %q; want 422", req.path, resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: %v in %q", req.path, err, body)
		}
		if !strings.HasPrefix(e.Error, "serve: result y[") {
			t.Errorf("%s: error %q does not name the non-finite element", req.path, e.Error)
		}
		if n := served(); n != 0 {
			t.Errorf("%s: served = %d after a 422", req.path, n)
		}
	}

	x := testX(a.Cols, 6)
	eng, err := core.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	y, err := eng.SpMV(a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&response{Y: y}); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/spmv", map[string]any{"matrix": "g", "x": x})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("status %d, body differs from the encoder's (%d vs %d bytes)", resp.StatusCode, len(body), want.Len())
	}
	if n := served(); n != 1 {
		t.Errorf("served = %d after one 200", n)
	}
}
