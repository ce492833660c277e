// Command spmvd is the SpMV serving daemon: it loads one or more
// matrices at startup, warms a pool of Two-Step engines per matrix, and
// serves concurrent SpMV / SpMSpV / Iterate / PageRank requests over
// HTTP with per-request deadline and capacity admission control and a
// bounded wait queue (429 when full, 503 on deadline, 422 over
// capacity). The PR 3 observability surface is live: /metrics renders
// the aggregated pool ledger in Prometheus text exposition, /healthz
// lists the resident matrices, and any request with "report": true gets
// a per-request JSON run report.
//
// Usage:
//
//	spmvd -addr :8080 -matrix web=er:100000:3:1 -matrix road=zipf:50000:4:2
//	spmvd -addr :8080 -matrix g=/data/graph.mtx -pool 4 -queue 16 -deadline 2s
//	spmvd -smoke        # self-check: serve, request, scrape, verify, exit
//
// Matrix specs are either a file path (MatrixMarket, MWMCOO binary, or
// edge list — sniffed) or generator:nodes[:degree[:seed]] with
// generator one of er, rmat, zipf.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mwmerge"
	"mwmerge/internal/core"
	"mwmerge/internal/graph"
	"mwmerge/internal/matrix"
	"mwmerge/internal/mem"
	"mwmerge/internal/prap"
	"mwmerge/internal/report"
	"mwmerge/internal/serve"
	"mwmerge/internal/vector"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// matrixList collects repeated -matrix name=spec flags.
type matrixList []struct{ name, spec string }

func (l *matrixList) String() string {
	var parts []string
	for _, m := range *l {
		parts = append(parts, m.name+"="+m.spec)
	}
	return strings.Join(parts, ",")
}

func (l *matrixList) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" || spec == "" {
		return fmt.Errorf("want name=spec, got %q", v)
	}
	for _, m := range *l {
		if m.name == name {
			return fmt.Errorf("duplicate matrix name %q", name)
		}
	}
	*l = append(*l, struct{ name, spec string }{name, spec})
	return nil
}

// parseSpec materializes one matrix spec: generator:nodes[:degree[:seed]]
// or a file path (format sniffed by matrix.ReadFile).
func parseSpec(spec string) (*matrix.COO, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "er", "rmat", "zipf":
		nodes, degree, seed, err := parseGenArgs(rest)
		if err != nil {
			return nil, fmt.Errorf("spec %q: %w", spec, err)
		}
		return graph.Generate(kind, nodes, degree, seed)
	}
	return matrix.ReadFile(spec)
}

func parseGenArgs(rest string) (nodes uint64, degree float64, seed int64, err error) {
	degree, seed = 3, 1
	fields := strings.Split(rest, ":")
	if len(fields) < 1 || len(fields) > 3 || fields[0] == "" {
		return 0, 0, 0, fmt.Errorf("want nodes[:degree[:seed]]")
	}
	if nodes, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("nodes: %w", err)
	}
	if len(fields) >= 2 {
		if degree, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return 0, 0, 0, fmt.Errorf("degree: %w", err)
		}
	}
	if len(fields) == 3 {
		if seed, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("seed: %w", err)
		}
	}
	return nodes, degree, seed, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spmvd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var matrices matrixList
	fs.Var(&matrices, "matrix", "name=spec matrix to serve (repeatable); spec is a file path or er|rmat|zipf:nodes[:degree[:seed]]")
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		poolSize   = fs.Int("pool", 2, "warmed engines per matrix")
		queue      = fs.Int("queue", 8, "bounded wait-queue depth per matrix (beyond the pool size)")
		deadline   = fs.Duration("deadline", 0, "default per-request admission deadline (0 = none)")
		scratchKiB = fs.Uint64("scratch", 256, "scratchpad KiB for the vector segment")
		ways       = fs.Int("ways", 1024, "merge core ways K")
		radix      = fs.Uint("q", 4, "PRaP radix bits (2^q merge cores)")
		maxBatch   = fs.Int("batch", 1, "max same-matrix /v1/spmv requests coalesced into one block flush (1 disables batching)")
		batchWin   = fs.Duration("batch-window", 2*time.Millisecond, "how long the first queued request waits for same-matrix company before its batch flushes")
		smoke      = fs.Bool("smoke", false, "self-check: serve a small graph, run PageRank over HTTP plus a coalesced SpMV batch, verify the /metrics scrape against a direct engine run, exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scratchKiB > math.MaxUint64>>10 {
		fmt.Fprintf(stderr, "spmvd: -scratch %d: more KiB than a 64-bit byte count holds\n", *scratchKiB)
		return 2
	}
	if *smoke {
		return runSmoke(stdout, stderr)
	}
	if len(matrices) == 0 {
		fmt.Fprintln(stderr, "spmvd: no -matrix given (try -matrix g=er:100000:3:1)")
		return 2
	}

	cfg := mwmerge.DefaultEngineConfig()
	cfg.ScratchpadBytes = *scratchKiB << 10
	cfg.Merge.Q = *radix
	cfg.Merge.Ways = *ways
	cfg.Workers = engineWorkers(*poolSize)
	cfg.Merge.MergeWorkers = cfg.Workers

	var pools []*serve.Pool
	for _, m := range matrices {
		a, err := parseSpec(m.spec)
		if err != nil {
			fmt.Fprintf(stderr, "spmvd: matrix %s: %v\n", m.name, err)
			return 1
		}
		p, err := serve.NewPool(serve.PoolConfig{
			Name: m.name, Matrix: a, Engine: cfg, Size: *poolSize, MaxQueue: *queue,
			MaxBatch: *maxBatch, BatchWindow: *batchWin,
		})
		if err != nil {
			fmt.Fprintln(stderr, "spmvd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spmvd: %s: %dx%d, %d nonzeros, %d engines warmed\n",
			m.name, a.Rows, a.Cols, a.NNZ(), p.Size())
		pools = append(pools, p)
	}
	s, err := serve.NewServer(serve.Config{DefaultDeadline: *deadline}, pools...)
	if err != nil {
		fmt.Fprintln(stderr, "spmvd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "spmvd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "spmvd: listening on %s\n", ln.Addr())
	srv := newHTTPServer(s.Handler(), readHeaderTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "spmvd:", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "spmvd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "spmvd:", err)
		return 1
	}
	return 0
}

// engineWorkers is each pooled engine's step-1 and merge goroutine count:
// an equal share of GOMAXPROCS, at least one, so a full pool never
// oversubscribes the host. Results and the ledger are bit-identical at
// any count.
func engineWorkers(pool int) int { return max(1, runtime.GOMAXPROCS(0)/max(pool, 1)) }

// readHeaderTimeout is how long a connection may take to send its
// request headers before the daemon drops it; without a bound an idle
// half-open connection pins its goroutine forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the daemon's HTTP server around h.
func newHTTPServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}
}

// smokeConfig is the fixed design point the smoke check runs at.
func smokeConfig() core.Config {
	return core.Config{
		ScratchpadBytes: 16 << 10,
		ValueBytes:      8,
		MetaBytes:       8,
		Lanes:           4,
		Merge:           prap.Config{Q: 2, Ways: 64, FIFODepth: 4, DPage: 256, RecordBytes: 16, MergeWorkers: 2},
		HBM:             mem.DefaultHBM(),
		Workers:         2,
	}
}

// runSmoke is the end-to-end self-check behind `make serve-smoke`: start
// the daemon on a loopback port, run PageRank through HTTP, scrape
// /metrics, and verify that the served ranks and the scraped ledger both
// equal a direct engine run of the same workload — the serving layer may
// add admission and pooling, but never change results or accounting.
func runSmoke(stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "spmvd smoke: FAIL: "+format+"\n", args...)
		return 1
	}
	const (
		nodes   = 2000
		degree  = 4
		seed    = 7
		damping = 0.85
		tol     = 1e-9
		iters   = 20
	)
	a, err := graph.ErdosRenyi(nodes, degree, seed)
	if err != nil {
		return fail("%v", err)
	}
	// Batching on with a wide window: the four concurrent SpMV requests
	// fired below hit the count trigger (MaxBatch) long before the timer,
	// so they deterministically coalesce into one multi-request flush.
	const smokeBatch = 4
	p, err := serve.NewPool(serve.PoolConfig{
		Name: "smoke", Matrix: a, Engine: smokeConfig(), Size: 2, MaxQueue: 4,
		MaxBatch: smokeBatch, BatchWindow: 2 * time.Second,
	})
	if err != nil {
		return fail("%v", err)
	}
	s, err := serve.NewServer(serve.Config{}, p)
	if err != nil {
		return fail("%v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	srv := newHTTPServer(s.Handler(), readHeaderTimeout)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "spmvd smoke: serving %d-node graph on %s\n", nodes, base)

	// The reference: a direct engine run of the exact same workload.
	eng, err := core.New(smokeConfig())
	if err != nil {
		return fail("%v", err)
	}
	wantY, wantIters, err := eng.PageRank(a, damping, tol, iters, false)
	if err != nil {
		return fail("direct engine: %v", err)
	}

	body, err := json.Marshal(map[string]any{
		"matrix": "smoke", "damping": damping, "tol": tol, "max_iters": iters,
	})
	if err != nil {
		return fail("%v", err)
	}
	resp, err := http.Post(base+"/v1/pagerank", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("pagerank request: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail("pagerank response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("pagerank status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Y          vector.Dense `json:"y"`
		Iterations int          `json:"iterations"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fail("pagerank decode: %v", err)
	}
	if out.Iterations != wantIters {
		return fail("served %d iterations, direct engine ran %d", out.Iterations, wantIters)
	}
	if d := out.Y.MaxAbsDiff(wantY); d != 0 {
		return fail("served ranks diverged from direct engine by %g", d)
	}

	scrape, err := http.Get(base + "/metrics")
	if err != nil {
		return fail("scrape: %v", err)
	}
	scraped, err := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	if err != nil {
		return fail("scrape read: %v", err)
	}
	var want bytes.Buffer
	if err := report.NewReport(report.Meta{Workload: "spmvd"}, eng.Counters()).WritePrometheus(&want); err != nil {
		return fail("%v", err)
	}
	if !bytes.HasPrefix(scraped, want.Bytes()) {
		return fail("scraped /metrics ledger does not match the direct engine run\n--- scraped ---\n%s--- want prefix ---\n%s", scraped, want.String())
	}
	if !bytes.Contains(scraped, []byte(`mwmerge_serve_requests_total{pool="smoke"} 1`)) {
		return fail("scrape missing the serve request counter:\n%s", scraped)
	}

	// Phase 2: fire smokeBatch concurrent SpMV requests at the same
	// matrix. The batcher must coalesce them into ONE SpMVBlock flush —
	// observable on /metrics — whose responses are bit-identical to a
	// direct block run and whose ledger charges the matrix stream once.
	xs := make([]vector.Dense, smokeBatch)
	for i := range xs {
		xs[i] = vector.NewDense(nodes)
		for j := range xs[i] {
			xs[i][j] = float64((j+i*7)%5) / 4
		}
	}
	got := make([]vector.Dense, smokeBatch)
	errs := make([]error, smokeBatch)
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(map[string]any{"matrix": "smoke", "x": xs[i]})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(base+"/v1/spmv", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			var out struct {
				Y vector.Dense `json:"y"`
			}
			if err := json.Unmarshal(raw, &out); err != nil {
				errs[i] = err
				return
			}
			got[i] = out.Y
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fail("batched spmv %d: %v", i, err)
		}
	}
	blk, err := eng.SpMVBlock(a, xs, nil)
	if err != nil {
		return fail("direct block engine: %v", err)
	}
	for i := range got {
		if d := got[i].MaxAbsDiff(blk.Ys[i]); d != 0 {
			return fail("batched spmv %d diverged from direct block run by %g", i, d)
		}
	}
	scrape2, err := http.Get(base + "/metrics")
	if err != nil {
		return fail("second scrape: %v", err)
	}
	scraped2, err := io.ReadAll(scrape2.Body)
	scrape2.Body.Close()
	if err != nil {
		return fail("second scrape read: %v", err)
	}
	var want2 bytes.Buffer
	if err := report.NewReport(report.Meta{Workload: "spmvd"}, eng.Counters()).WritePrometheus(&want2); err != nil {
		return fail("%v", err)
	}
	if !bytes.HasPrefix(scraped2, want2.Bytes()) {
		return fail("post-batch /metrics ledger does not match the direct PageRank + SpMVBlock run — the matrix was not charged once per flush\n--- scraped ---\n%s--- want prefix ---\n%s", scraped2, want2.String())
	}
	// At least one multi-request flush: all requests went through one
	// coalesced SpMVBlock call.
	if !bytes.Contains(scraped2, []byte(`mwmerge_serve_batch_flushes_total{pool="smoke"} 1`)) ||
		!bytes.Contains(scraped2, []byte(fmt.Sprintf(`mwmerge_serve_batched_requests_total{pool="smoke"} %d`, smokeBatch))) {
		return fail("scrape does not show one %d-request coalesced flush:\n%s", smokeBatch, scraped2)
	}
	fmt.Fprintf(stdout, "spmvd smoke: OK: %d iterations bit-identical, %d spmv requests coalesced into one flush, scraped ledger equals direct engine (%d bytes of exposition)\n",
		out.Iterations, smokeBatch, want2.Len())
	return 0
}
