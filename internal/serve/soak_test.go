package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mwmerge/internal/core"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// soakOp is one precomputed request: its HTTP form plus the bit-exact
// result and ledger delta a fresh engine produces for it.
type soakOp struct {
	path  string
	body  map[string]any
	want  vector.Dense
	delta report.Counters
}

// TestServeSoak is the serving concurrency hammer: several clients fire
// interleaved SpMV / SpMSpV / Iterate / PageRank requests at a shared
// coalescing pool — SpMV rides the batcher, the rest check out directly
// — across step-1 × step-2 parallelism configs, and every response must
// match a sequential fresh-engine run bit for bit. Afterwards every
// member must be back in the pool and the aggregated ledger must equal
// the sum of the per-op deltas less one matrix stream per request a
// flush coalesced — concurrency may reorder and batch requests but
// never change what any of them computed or charged. Run under -race
// this is the guard for the pool's two locking rules: the published
// snapshots and flush counters are scraped (Ledger, /metrics) while
// checkouts publish them.
func TestServeSoak(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, mergeWorkers := range []int{1, 2} {
			t.Run(fmt.Sprintf("w%d/mw%d", workers, mergeWorkers), func(t *testing.T) {
				soakOnce(t, workers, mergeWorkers)
			})
		}
	}
}

func soakOnce(t *testing.T, workers, mergeWorkers int) {
	t.Helper()
	cfg := testEngineConfig()
	cfg.Workers = workers
	cfg.Merge.MergeWorkers = mergeWorkers

	const (
		n       = 512
		clients = 6
		rounds  = 4 // ops per client
	)
	a := testGraph(t, n, 5, 21)

	// Precompute the request mix and its sequential fresh-engine
	// reference. Op kinds cycle so every client interleaves all four.
	fresh := func() *core.Engine {
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var ops []soakOp
	for i := 0; i < clients*rounds; i++ {
		e := fresh()
		var op soakOp
		switch i % 4 {
		case 0:
			x := testX(n, int64(100+i))
			y, err := e.SpMV(a, x, nil)
			if err != nil {
				t.Fatal(err)
			}
			op = soakOp{"/v1/spmv", map[string]any{"matrix": "g", "x": x}, y, e.Counters()}
		case 1:
			sx := soakFrontier(t, n, i)
			keys := make([]uint64, 0, len(sx.Recs))
			vals := make([]float64, 0, len(sx.Recs))
			for _, r := range sx.Recs {
				keys = append(keys, r.Key)
				vals = append(vals, r.Val)
			}
			y, _, err := e.SpMSpV(a, sx)
			if err != nil {
				t.Fatal(err)
			}
			op = soakOp{"/v1/spmspv", map[string]any{"matrix": "g", "keys": keys, "vals": vals}, y, e.Counters()}
		case 2:
			x := testX(n, int64(200+i))
			overlap := i%8 == 2
			res, err := e.Iterate(a, x, core.IterateOptions{Iterations: 2, Overlap: overlap, Damping: 0.85})
			if err != nil {
				t.Fatal(err)
			}
			op = soakOp{"/v1/iterate",
				map[string]any{"matrix": "g", "x0": x, "iterations": 2, "overlap": overlap, "damping": 0.85},
				res.X, e.Counters()}
		default:
			overlap := i%8 == 7
			y, _, err := e.PageRank(a, 0.9, 1e-8, 6, overlap)
			if err != nil {
				t.Fatal(err)
			}
			op = soakOp{"/v1/pagerank",
				map[string]any{"matrix": "g", "damping": 0.9, "tol": 1e-8, "max_iters": 6, "overlap": overlap},
				y, e.Counters()}
		}
		ops = append(ops, op)
	}
	var wantLedger report.Counters
	for _, op := range ops {
		wantLedger = wantLedger.Add(op.delta)
	}

	// Pool smaller than the client count so checkouts genuinely contend;
	// queue deep enough that no request is rejected.
	const size = 3
	p, err := NewPool(PoolConfig{Name: "g", Matrix: a, Engine: cfg, Size: size, MaxQueue: clients * rounds, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	errs := make(chan error, clients+1)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				op := ops[i]
				status, body, err := soakPost(ts.URL+op.path, op.body)
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %v", c, i, err)
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d op %d (%s): status %d: %s", c, i, op.path, status, body)
					return
				}
				var out struct {
					Y vector.Dense `json:"y"`
				}
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- fmt.Errorf("client %d op %d: %v", c, i, err)
					return
				}
				if d := out.Y.MaxAbsDiff(op.want); d != 0 {
					errs <- fmt.Errorf("client %d op %d (%s): served result diverged from sequential fresh-engine run by %g", c, i, op.path, d)
					return
				}
			}
		}(c)
	}

	// A concurrent scraper: /metrics (every member's snapshot plus the
	// flush counters) must stay consistent and race-free while requests
	// are in flight. Each scrape takes the batcher's counters once, so
	// within one exposition the flush and request totals equal the
	// occupancy histogram's count and sum.
	scrapeStop := make(chan struct{})
	scrapeExit := make(chan struct{})
	go func() {
		defer close(scrapeExit)
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				errs <- fmt.Errorf("scrape: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- fmt.Errorf("scrape: %v", err)
				return
			}
			if err := batchSeriesAgree(string(body), "g"); err != nil {
				errs <- fmt.Errorf("scrape: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(scrapeStop)
	<-scrapeExit
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	if len(p.idle) != size {
		t.Fatalf("%d of %d members back in the pool", len(p.idle), size)
	}
	got, served := p.Ledger()
	if served != uint64(len(ops)) {
		t.Fatalf("ledger counted %d requests, want %d", served, len(ops))
	}
	// A flush of k requests streams the matrix once, not k times (ops[0]
	// is a lone SpMV, so its delta carries exactly one matrix share:
	// the stream and its meta-data footprint).
	bs, _ := p.BatchStats()
	if want := uint64(len(ops) / 4); bs.Requests != want || bs.Flushes == 0 {
		t.Fatalf("batcher served %d requests in %d flushes, want all %d SpMV ops", bs.Requests, bs.Flushes, want)
	}
	saved, single := bs.Requests-bs.Flushes, ops[0].delta
	wantLedger.Traffic.MatrixBytes -= saved * single.Traffic.MatrixBytes
	wantLedger.MatCompressedBytes -= saved * single.MatCompressedBytes
	wantLedger.MatUncompressedBytes -= saved * single.MatUncompressedBytes
	if got != wantLedger {
		t.Fatalf("aggregated ledger diverged from sequential reference:\ngot  %+v\nwant %+v", got, wantLedger)
	}
}

// batchSeriesAgree checks one /metrics exposition for the batcher's
// internal consistency on pool: flushes_total equals the occupancy
// histogram's count, and batched_requests_total its sum.
func batchSeriesAgree(exposition, pool string) error {
	values := map[string]string{}
	for _, line := range strings.Split(exposition, "\n") {
		if name, v, ok := strings.Cut(line, "{pool=\""+pool+"\"} "); ok {
			values[name] = v
		}
	}
	for _, pair := range [][2]string{
		{"mwmerge_serve_batch_flushes_total", "mwmerge_serve_batch_occupancy_count"},
		{"mwmerge_serve_batched_requests_total", "mwmerge_serve_batch_occupancy_sum"},
	} {
		a, okA := values[pair[0]]
		b, okB := values[pair[1]]
		if !okA || !okB {
			return fmt.Errorf("exposition lacks %s or %s for pool %q", pair[0], pair[1], pool)
		}
		if a != b {
			return fmt.Errorf("one exposition reads %s %s but %s %s", pair[0], a, pair[1], b)
		}
	}
	return nil
}

// soakFrontier deterministically builds an 8-nonzero frontier whose keys
// spread across several stripes (segment width 128 at the test config).
func soakFrontier(t *testing.T, dim uint64, seed int) *vector.Sparse {
	t.Helper()
	stride := dim / 8
	sx := vector.NewSparse(int(dim), 8)
	for j := uint64(0); j < 8; j++ {
		k := j*stride + uint64(seed)%stride
		if err := sx.Append(types.Record{Key: k, Val: 1 + float64(j) + float64(seed%3)}); err != nil {
			t.Fatal(err)
		}
	}
	return sx
}

// soakPost is postJSON without the *testing.T: client goroutines must
// report failures through channels, not t.Fatal.
func soakPost(url string, body map[string]any) (int, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}
