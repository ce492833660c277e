package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/report"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// Config parameterizes the HTTP server around a set of pools.
type Config struct {
	// DefaultDeadline bounds a request that carries no deadline_ms of
	// its own; 0 leaves such requests unbounded. A negative value is
	// rejected, as a negative deadline_ms is.
	DefaultDeadline time.Duration
}

// maxBodyBytes caps request bodies; a larger body is answered with 413.
const maxBodyBytes = 64 << 20

// Server mounts the serving endpoints over one or more matrix pools:
//
//	POST /v1/spmv      {"matrix","x","y_in"?,...}        → {"y",...}
//	POST /v1/spmspv    {"matrix","keys","vals",...}      → {"y","spmspv_stats",...}
//	POST /v1/iterate   {"matrix","x0","iterations",...}  → {"y","iterations",...}
//	POST /v1/pagerank  {"matrix","damping","tol",...}    → {"y","iterations",...}
//	GET  /metrics                                        → aggregated pool ledger (Prometheus)
//	GET  /healthz                                        → pool inventory
//
// Every compute request accepts "deadline_ms" (admission deadline) and
// "report": true (a per-request counter-delta run report in the
// response). Admission rejections are explicit and happen before any
// engine work: 429 when the bounded queue is full, 503 when the
// deadline expires while queued, 422 when the request exceeds the
// engine capacity (e.g. ITS overlap on a too-large matrix).
type Server struct {
	cfg   Config
	pools map[string]*Pool
	names []string
	mux   *http.ServeMux

	mu          sync.Mutex
	served      uint64
	rejQueue    uint64
	rejDeadline uint64
	rejCapacity uint64
}

// NewServer assembles a server over the given pools.
func NewServer(cfg Config, pools ...*Pool) (*Server, error) {
	if len(pools) == 0 {
		return nil, fmt.Errorf("serve: server needs at least one pool")
	}
	if cfg.DefaultDeadline < 0 {
		return nil, fmt.Errorf("serve: negative default deadline %v", cfg.DefaultDeadline)
	}
	s := &Server{cfg: cfg, pools: make(map[string]*Pool), mux: http.NewServeMux()}
	for _, p := range pools {
		if _, dup := s.pools[p.name]; dup {
			return nil, fmt.Errorf("serve: duplicate pool %q", p.name)
		}
		s.pools[p.name] = p
		s.names = append(s.names, p.name)
	}
	sort.Strings(s.names)
	s.mux.HandleFunc("POST /v1/spmv", s.handleSpMV)
	s.mux.HandleFunc("POST /v1/spmspv", s.handleSpMSpV)
	s.mux.HandleFunc("POST /v1/iterate", s.handleIterate)
	s.mux.HandleFunc("POST /v1/pagerank", s.handlePageRank)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// requestCommon carries the fields every compute request shares.
type requestCommon struct {
	Matrix     string `json:"matrix"`
	DeadlineMS int64  `json:"deadline_ms"`
	Report     bool   `json:"report"`
}

type spmvRequest struct {
	requestCommon
	X   []float64 `json:"x"`
	YIn []float64 `json:"y_in"`
}

type spmspvRequest struct {
	requestCommon
	// Keys/Vals are the sparse frontier in strictly ascending key order.
	Keys []uint64  `json:"keys"`
	Vals []float64 `json:"vals"`
}

type iterateRequest struct {
	requestCommon
	X0         []float64 `json:"x0"`
	Iterations int       `json:"iterations"`
	Overlap    bool      `json:"overlap"`
	Damping    float64   `json:"damping"`
}

// pagerankRequest's pointer fields take their defaults (damping 0.85,
// tol 1e-9, max_iters 50) only when omitted: an explicit 0 reaches the
// engine, where tol 0 runs max_iters iterations and max_iters 0 is
// rejected.
type pagerankRequest struct {
	requestCommon
	Damping  *float64 `json:"damping"`
	Tol      *float64 `json:"tol"`
	MaxIters *int     `json:"max_iters"`
	Overlap  bool     `json:"overlap"`
}

// orDefault returns *p, or def when the field was omitted.
func orDefault[T any](p *T, def T) T {
	if p == nil {
		return def
	}
	return *p
}

// spmspvStatsJSON is the stable JSON shape of core.SpMSpVStats.
type spmspvStatsJSON struct {
	SegmentsTotal  int    `json:"segments_total"`
	SegmentsActive int    `json:"segments_active"`
	EntriesVisited uint64 `json:"entries_visited"`
	EntriesSkipped uint64 `json:"entries_skipped"`
}

// response is the JSON body of every successful compute request.
type response struct {
	Y          []float64        `json:"y"`
	Iterations int              `json:"iterations,omitempty"`
	Frontier   *spmspvStatsJSON `json:"spmspv_stats,omitempty"`
	// Report is the per-request counter-delta run report, present when
	// the request asked for one.
	Report *report.Report `json:"report,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON answers status with body. It encodes after the header has
// gone out, so it suits only bodies JSON always carries: the error and
// health bodies hold strings and integers alone. Results go through
// writeResult.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeResult answers a computed response 200 and counts it served. The
// body is encoded before the header goes out: a result JSON cannot
// carry — a y holding ±Inf or NaN — is answered 422 naming its first
// non-finite element, and is not counted. The bytes equal writeJSON's.
func (s *Server) writeResult(w http.ResponseWriter, resp *response) {
	body, err := json.Marshal(resp)
	if err != nil {
		msg := "serve: result is not representable in JSON: " + err.Error()
		for i, v := range resp.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				msg = fmt.Sprintf("serve: result y[%d] is %v, which JSON cannot represent", i, v)
				break
			}
		}
		httpError(w, http.StatusUnprocessableEntity, msg)
		return
	}
	s.bump(&s.served)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n')) // json.Encoder ends every value with a newline
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// decode reads the request body into dst. A body over maxBodyBytes is
// rejected with 413; malformed JSON, or anything but whitespace after
// the JSON value, with 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(dst)
	if err == nil {
		err = onlySpace(io.MultiReader(dec.Buffered(), r.Body))
	}
	switch {
	case err == nil:
		return true
	case errors.As(err, new(*http.MaxBytesError)):
		httpError(w, http.StatusRequestEntityTooLarge, "serve: request body too large: "+err.Error())
	default:
		httpError(w, http.StatusBadRequest, "serve: bad request body: "+err.Error())
	}
	return false
}

// onlySpace reads r to its end and fails on the first byte that is not
// JSON whitespace. Unlike a second json.Decoder.Decode it holds no more
// than one read buffer, however long the trailing whitespace runs.
func onlySpace(r io.Reader) error {
	var buf [512]byte
	for {
		n, err := r.Read(buf[:])
		for _, c := range buf[:n] {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return errors.New("trailing data after the JSON value")
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// run applies the admission pipeline — pool lookup, capacity check,
// deadline budget, bounded-queue engine checkout — and executes fn on
// the checked-out engine. Every rejection happens before fn runs.
func (s *Server) run(w http.ResponseWriter, r *http.Request, common requestCommon, op string, overlap bool, fn func(eng *core.Engine) (*response, error)) {
	p := s.pools[common.Matrix]
	if p == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("serve: unknown matrix %q", common.Matrix))
		return
	}
	ctx, cancel, ok := s.admit(w, r, p, common.DeadlineMS, overlap)
	if !ok {
		return
	}
	defer cancel()
	var resp *response
	err := p.Do(ctx, func(eng *core.Engine) error {
		var before report.Counters
		if common.Report {
			before = eng.Counters()
		}
		var err error
		resp, err = fn(eng)
		if err != nil {
			return err
		}
		if common.Report {
			resp.Report = report.NewReport(p.meta(op, overlap), eng.Counters().Sub(before))
		}
		return nil
	})
	s.reply(w, resp, err)
}

// admit applies the checks every request on p passes before it may
// queue: a non-negative deadline and the pool's capacity for the
// schedule. It returns the request's context, bounded by its deadline
// budget, and the func releasing it; false means the rejection has been
// written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, p *Pool, deadlineMS int64, overlap bool) (context.Context, context.CancelFunc, bool) {
	if deadlineMS < 0 {
		httpError(w, http.StatusBadRequest, "serve: negative deadline_ms")
		return nil, nil, false
	}
	if err := p.CheckCapacity(overlap); err != nil {
		s.bump(&s.rejCapacity)
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return nil, nil, false
	}
	if d := s.deadlineFor(deadlineMS); d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		return ctx, cancel, true
	}
	return r.Context(), func() {}, true
}

// reply writes a served request's outcome: 429 for a full queue, 503
// for a deadline that expired before work started, 400 for an engine
// error — the request's data did not fit the resident matrix — and the
// result otherwise.
func (s *Server) reply(w http.ResponseWriter, resp *response, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.bump(&s.rejQueue)
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDeadline):
		s.bump(&s.rejDeadline)
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		s.writeResult(w, resp)
	}
}

// meta describes one op on p's matrix for a request's report.
func (p *Pool) meta(op string, overlap bool) report.Meta {
	return report.Meta{
		Workload:     "serve:" + op + " matrix=" + p.name,
		Rows:         p.a.Rows,
		Cols:         p.a.Cols,
		NNZ:          uint64(p.a.NNZ()),
		Workers:      p.cfg.Workers,
		MergeWorkers: p.cfg.Merge.MergeWorkers,
		MergeCores:   p.cfg.Merge.Cores(),
		Overlap:      overlap,
	}
}

// deadlineFor resolves a request's admission budget.
func (s *Server) deadlineFor(deadlineMS int64) time.Duration {
	if deadlineMS > 0 {
		return time.Duration(deadlineMS) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

func (s *Server) bump(counter *uint64) {
	s.mu.Lock()
	*counter++
	s.mu.Unlock()
}

func (s *Server) handleSpMV(w http.ResponseWriter, r *http.Request) {
	var req spmvRequest
	if !s.decode(w, r, &req) {
		return
	}
	if p := s.pools[req.Matrix]; p != nil && p.Batching() {
		s.handleSpMVBatched(w, r, p, &req)
		return
	}
	s.run(w, r, req.requestCommon, "spmv", false, func(eng *core.Engine) (*response, error) {
		y, err := eng.SpMV(s.pools[req.Matrix].a, req.X, req.YIn)
		if err != nil {
			return nil, err
		}
		return &response{Y: y}, nil
	})
}

// handleSpMVBatched is the /v1/spmv path for pools with coalescing
// enabled. Admission — deadline sanity, capacity, operand dimensions —
// happens per request up front, so a malformed request is rejected
// alone, before it can join (and poison) a batch. The surviving request
// is handed to the pool's batcher, which serves up to MaxBatch queued
// requests with one SpMVBlock call on one member and splits the
// per-request counter deltas back out; a request whose deadline expires
// mid-window gets 503 while the rest of its batch completes normally.
// Responses are bit-identical to the unbatched path.
func (s *Server) handleSpMVBatched(w http.ResponseWriter, r *http.Request, p *Pool, req *spmvRequest) {
	ctx, cancel, ok := s.admit(w, r, p, req.DeadlineMS, false)
	if !ok {
		return
	}
	defer cancel()
	if err := p.cfg.CheckOperands(p.a, uint64(len(req.X)), req.YIn); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	y, delta, err := p.batch.submit(ctx, req.X, req.YIn)
	var resp *response
	if err == nil {
		resp = &response{Y: y}
		if req.Report {
			// The request's split of the batch delta: the column that
			// streamed the matrix carries the whole batch's matrix+VLDI
			// share (BlockResult.Deltas), so the reports of one flush sum
			// to the flush's total ledger movement.
			resp.Report = report.NewReport(p.meta("spmv", false), delta)
		}
	}
	s.reply(w, resp, err)
}

func (s *Server) handleSpMSpV(w http.ResponseWriter, r *http.Request) {
	var req spmspvRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Keys) != len(req.Vals) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("serve: %d keys vs %d vals", len(req.Keys), len(req.Vals)))
		return
	}
	s.run(w, r, req.requestCommon, "spmspv", false, func(eng *core.Engine) (*response, error) {
		a := s.pools[req.Matrix].a
		sx := vector.NewSparse(int(a.Cols), len(req.Keys))
		for i, k := range req.Keys {
			if err := sx.Append(types.Record{Key: k, Val: req.Vals[i]}); err != nil {
				return nil, err
			}
		}
		y, st, err := eng.SpMSpV(a, sx)
		if err != nil {
			return nil, err
		}
		return &response{Y: y, Frontier: &spmspvStatsJSON{
			SegmentsTotal:  st.SegmentsTotal,
			SegmentsActive: st.SegmentsActive,
			EntriesVisited: st.EntriesVisited,
			EntriesSkipped: st.EntriesSkipped,
		}}, nil
	})
}

func (s *Server) handleIterate(w http.ResponseWriter, r *http.Request) {
	var req iterateRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.run(w, r, req.requestCommon, "iterate", req.Overlap, func(eng *core.Engine) (*response, error) {
		res, err := eng.Iterate(s.pools[req.Matrix].a, req.X0, core.IterateOptions{
			Iterations: req.Iterations,
			Overlap:    req.Overlap,
			Damping:    req.Damping,
		})
		if err != nil {
			return nil, err
		}
		return &response{Y: res.X, Iterations: res.Iterations}, nil
	})
}

func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request) {
	var req pagerankRequest
	if !s.decode(w, r, &req) {
		return
	}
	damping, tol, maxIters := orDefault(req.Damping, 0.85), orDefault(req.Tol, 1e-9), orDefault(req.MaxIters, 50)
	s.run(w, r, req.requestCommon, "pagerank", req.Overlap, func(eng *core.Engine) (*response, error) {
		ranks, iters, err := eng.PageRank(s.pools[req.Matrix].a, damping, tol, maxIters, req.Overlap)
		if err != nil {
			return nil, err
		}
		return &response{Y: ranks, Iterations: iters}, nil
	})
}

// AggregatedLedger sums every pool's published ledger — the counter
// state /metrics renders. Exposed so callers (tests, the smoke check)
// can compare a scrape against the exact expected exposition.
func (s *Server) AggregatedLedger() report.Counters {
	var c report.Counters
	for _, name := range s.names {
		pc, _ := s.pools[name].Ledger()
		c = c.Add(pc)
	}
	return c
}

// handleMetrics renders the aggregated pool ledger in the Prometheus
// text exposition the run reports use, followed by the serving layer's
// own request/rejection gauges. It takes each pool's Ledger once, so
// every series of one pool in one scrape comes from the same instant.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ledgers := make([]report.Counters, len(s.names))
	requests := make([]uint64, len(s.names))
	var c report.Counters
	for i, name := range s.names {
		ledgers[i], requests[i] = s.pools[name].Ledger()
		c = c.Add(ledgers[i])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rep := report.NewReport(report.Meta{Workload: "spmvd"}, c)
	if err := rep.WritePrometheus(w); err != nil {
		return
	}
	s.mu.Lock()
	served, rq, rd, rc := s.served, s.rejQueue, s.rejDeadline, s.rejCapacity
	s.mu.Unlock()
	fmt.Fprintf(w, "# HELP mwmerge_serve_requests_total Completed compute requests by pool.\n# TYPE mwmerge_serve_requests_total counter\n")
	for i, name := range s.names {
		fmt.Fprintf(w, "mwmerge_serve_requests_total{pool=%q} %d\n", name, requests[i])
	}
	fmt.Fprintf(w, "# HELP mwmerge_serve_served_total Requests answered 200.\n# TYPE mwmerge_serve_served_total counter\nmwmerge_serve_served_total %d\n", served)
	fmt.Fprintf(w, "# HELP mwmerge_serve_rejected_total Admission rejections by reason.\n# TYPE mwmerge_serve_rejected_total counter\n")
	fmt.Fprintf(w, "mwmerge_serve_rejected_total{reason=\"queue_full\"} %d\n", rq)
	fmt.Fprintf(w, "mwmerge_serve_rejected_total{reason=\"deadline\"} %d\n", rd)
	fmt.Fprintf(w, "mwmerge_serve_rejected_total{reason=\"capacity\"} %d\n", rc)
	fmt.Fprintf(w, "# HELP mwmerge_serve_pool_engines Warmed engines per pool.\n# TYPE mwmerge_serve_pool_engines gauge\n")
	for _, name := range s.names {
		fmt.Fprintf(w, "mwmerge_serve_pool_engines{pool=%q} %d\n", name, s.pools[name].Size())
	}
	// Drain/skew health per resident matrix (DESIGN.md §13): a high
	// injected ratio says the pool's output is hypersparse (drain-bound —
	// the sparse drain's regime); a high stripe imbalance says step 1 is
	// straggler-bound on a skewed partition.
	fmt.Fprintf(w, "# HELP mwmerge_serve_pool_injected_ratio Fraction of store-queue output injected as missing keys.\n# TYPE mwmerge_serve_pool_injected_ratio gauge\n")
	for i, name := range s.names {
		fmt.Fprintf(w, "mwmerge_serve_pool_injected_ratio{pool=%q} %g\n", name, ledgers[i].InjectedRatio())
	}
	fmt.Fprintf(w, "# HELP mwmerge_serve_pool_stripe_imbalance Mean heaviest-stripe / mean-stripe nonzero ratio per step-1 run.\n# TYPE mwmerge_serve_pool_stripe_imbalance gauge\n")
	for i, name := range s.names {
		fmt.Fprintf(w, "mwmerge_serve_pool_stripe_imbalance{pool=%q} %g\n", name, ledgers[i].StripeImbalance())
	}
	s.writeBatchMetrics(w)
}

// writeBatchMetrics renders the batcher counters of every coalescing
// pool: flush and batched-request totals plus the requests-per-flush
// occupancy histogram, which is how the matrix amortization — one A
// stream serving many requests — stays observable in production, not
// just in benches. It takes each pool's BatchStats once, so a pool's
// flush total equals its histogram count in every scrape. Pools without
// batching emit nothing.
func (s *Server) writeBatchMetrics(w io.Writer) {
	type batchPool struct {
		name string
		bs   BatchStats
	}
	var batching []batchPool
	for _, name := range s.names {
		if bs, ok := s.pools[name].BatchStats(); ok {
			batching = append(batching, batchPool{name, bs})
		}
	}
	if len(batching) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP mwmerge_serve_batch_flushes_total Coalesced SpMVBlock flushes by pool.\n# TYPE mwmerge_serve_batch_flushes_total counter\n")
	for _, p := range batching {
		fmt.Fprintf(w, "mwmerge_serve_batch_flushes_total{pool=%q} %d\n", p.name, p.bs.Flushes)
	}
	fmt.Fprintf(w, "# HELP mwmerge_serve_batched_requests_total Requests served through coalesced flushes by pool.\n# TYPE mwmerge_serve_batched_requests_total counter\n")
	for _, p := range batching {
		fmt.Fprintf(w, "mwmerge_serve_batched_requests_total{pool=%q} %d\n", p.name, p.bs.Requests)
	}
	fmt.Fprintf(w, "# HELP mwmerge_serve_batch_occupancy Requests coalesced per flush.\n# TYPE mwmerge_serve_batch_occupancy histogram\n")
	for _, p := range batching {
		cum := uint64(0)
		for i, ub := range occupancyBuckets {
			cum += p.bs.Occupancy[i]
			fmt.Fprintf(w, "mwmerge_serve_batch_occupancy_bucket{pool=%q,le=\"%d\"} %d\n", p.name, ub, cum)
		}
		cum += p.bs.Occupancy[len(occupancyBuckets)]
		fmt.Fprintf(w, "mwmerge_serve_batch_occupancy_bucket{pool=%q,le=\"+Inf\"} %d\n", p.name, cum)
		fmt.Fprintf(w, "mwmerge_serve_batch_occupancy_sum{pool=%q} %d\n", p.name, p.bs.Requests)
		fmt.Fprintf(w, "mwmerge_serve_batch_occupancy_count{pool=%q} %d\n", p.name, p.bs.Flushes)
	}
}

// healthPool is one pool's row in the /healthz inventory.
type healthPool struct {
	Matrix   string `json:"matrix"`
	Rows     uint64 `json:"rows"`
	Cols     uint64 `json:"cols"`
	NNZ      uint64 `json:"nnz"`
	Engines  int    `json:"engines"`
	Requests uint64 `json:"requests"`
}

type healthResponse struct {
	Status string       `json:"status"`
	Pools  []healthPool `json:"pools"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok"}
	for _, name := range s.names {
		p := s.pools[name]
		_, n := p.Ledger()
		resp.Pools = append(resp.Pools, healthPool{
			Matrix:   name,
			Rows:     p.a.Rows,
			Cols:     p.a.Cols,
			NNZ:      uint64(p.a.NNZ()),
			Engines:  p.Size(),
			Requests: n,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
