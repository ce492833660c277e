package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/serve"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// The daemon half: the serving fixture behind an in-process
// serve.Server on a loopback TCP listener, exactly as spmvd mounts it,
// driven by a closed-loop load generator. Closed loop because the
// callers of /v1/spmv wait for their reply before asking again; two
// clients because the sandbox has two cores.

const (
	poolPlain   = "g"  // spmvd's defaults: pool 2, queue 8, no batching
	poolBatched = "gb" // the same with MaxBatch 2, BatchWindow 2ms
	clients     = 2
)

// daemon is the running server with its pools and the client side.
type daemon struct {
	plain, batched *serve.Pool
	server         *serve.Server
	http           *http.Server
	served         chan error // Serve's return value
	base           string     // http://127.0.0.1:port
	client         *http.Client
}

// startDaemon builds and warms both pools on a, mounts them, and starts
// serving on 127.0.0.1:0. This is the daemon's share of set-up.
func startDaemon(a *matrix.COO) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	var err error
	pc := serve.PoolConfig{Name: poolPlain, Matrix: a, Engine: daemonConfig(), Size: 2, MaxQueue: 8}
	if d.plain, err = serve.NewPool(pc); err != nil {
		return nil, err
	}
	pc.Name, pc.MaxBatch, pc.BatchWindow = poolBatched, 2, 2*time.Millisecond
	if d.batched, err = serve.NewPool(pc); err != nil {
		return nil, err
	}
	if d.server, err = serve.NewServer(serve.Config{}, d.plain, d.batched); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.server.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}}
	return d, nil
}

// stop shuts the server down and waits for its goroutine to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	return err
}

// request is one pre-encoded request of the load generator.
type request struct {
	kind string // spmv, pagerank, spmspv, iterate; the ledger tally key
	pool string
	body []byte
	key  string // identifies the expected response body
}

// encodeRequest marshals a request body once, before any timing.
func encodeRequest(kind, pool, key string, fields map[string]any) (request, error) {
	fields["matrix"] = pool
	body, err := json.Marshal(fields)
	return request{kind: kind, pool: pool, body: body, key: key}, err
}

// reply is what a client saw for one request.
type reply struct {
	req     request
	latency time.Duration
	status  int
	err     error
}

// loadgen is the client side's bookkeeping: the response fingerprints
// it has verified, the per-pool request tallies the ledger check
// replays, and the rejections it saw.
type loadgen struct {
	b        *bench
	d        *daemon
	direct   *core.Engine // a plain engine, the oracle for response bodies
	directMu sync.Mutex

	mu       sync.Mutex
	expected map[string]uint64         // request key → hash of its verified body
	tally    map[string]map[string]int // pool → kind → completed requests
	rej429   int
	rej503   int
}

func newLoadgen(b *bench, d *daemon) (*loadgen, error) {
	direct, err := core.New(daemonConfig())
	if err != nil {
		return nil, err
	}
	return &loadgen{b: b, d: d, direct: direct,
		expected: make(map[string]uint64),
		tally:    map[string]map[string]int{poolPlain: {}, poolBatched: {}},
	}, nil
}

// runDirect executes the operation a request names on the direct engine
// and returns its y. The engine is confined to one goroutine at a time
// by directMu, because either client may be the one verifying.
func (g *loadgen) runDirect(req request) (vector.Dense, error) {
	var fields struct {
		X          []float64 `json:"x"`
		X0         []float64 `json:"x0"`
		Keys       []uint64  `json:"keys"`
		Vals       []float64 `json:"vals"`
		Iterations int       `json:"iterations"`
		Damping    float64   `json:"damping"`
		Tol        float64   `json:"tol"`
		MaxIters   int       `json:"max_iters"`
	}
	if err := json.Unmarshal(req.body, &fields); err != nil {
		return nil, err
	}
	a := g.b.in.served
	g.directMu.Lock()
	defer g.directMu.Unlock()
	switch req.kind {
	case "spmv":
		return g.direct.SpMV(a, fields.X, nil)
	case "iterate":
		out, err := g.direct.Iterate(a, fields.X0, core.IterateOptions{Iterations: fields.Iterations, Damping: fields.Damping})
		return out.X, err
	case "pagerank":
		ranks, _, err := g.direct.PageRank(a, fields.Damping, fields.Tol, fields.MaxIters, false)
		return ranks, err
	case "spmspv":
		sx := vector.NewSparse(int(a.Cols), len(fields.Keys))
		for i, k := range fields.Keys {
			if err := sx.Append(types.Record{Key: k, Val: fields.Vals[i]}); err != nil {
				return nil, err
			}
		}
		y, _, err := g.direct.SpMSpV(a, sx)
		return y, err
	}
	return nil, fmt.Errorf("unknown request kind %q", req.kind)
}

// verifyFirst checks the first response seen for a request key: its y
// must be bit-identical to a direct engine run of the same operation.
// It returns the body's fingerprint for all later responses.
func (g *loadgen) verifyFirst(req request, body []byte) (uint64, error) {
	var resp struct {
		Y []float64 `json:"y"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	want, err := g.runDirect(req)
	if err != nil {
		return 0, err
	}
	if hashFloats(resp.Y) != hashFloats(want) {
		return 0, fmt.Errorf("served y is not bit-identical to a direct engine run")
	}
	return hashBytes(body), nil
}

// do sends one request and validates the response: 200, and a body
// byte-identical to the verified first response for the same request.
// Validation runs after the latency clock has stopped.
func (g *loadgen) do(req request, buf *bytes.Buffer, parent int) reply {
	path := "/v1/" + req.kind
	id := g.b.tr.begin("http "+path, parent, g.b.tr.newOp())
	start := time.Now()
	resp, err := g.d.client.Post(g.d.base+path, "application/json", bytes.NewReader(req.body))
	status := 0
	if err == nil {
		status = resp.StatusCode
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	rep := reply{req: req, latency: time.Since(start), status: status, err: err}
	g.b.tr.end(id)

	ok, why := false, ""
	switch {
	case err != nil:
		why = err.Error()
	case status != http.StatusOK:
		why = fmt.Sprintf("status %d: %s", status, strings.TrimSpace(buf.String()))
	default:
		g.mu.Lock()
		want, seen := g.expected[req.key]
		g.tally[req.pool][req.kind]++
		g.mu.Unlock()
		if !seen {
			// Two clients may both meet a key first; both verify, and
			// they can only agree.
			if want, err = g.verifyFirst(req, buf.Bytes()); err != nil {
				why = err.Error()
				break
			}
			g.mu.Lock()
			g.expected[req.key] = want
			g.mu.Unlock()
		}
		if ok = hashBytes(buf.Bytes()) == want; !ok {
			why = "response body differs from the verified first response"
		}
	}
	g.mu.Lock()
	switch status {
	case http.StatusTooManyRequests:
		g.rej429++
	case http.StatusServiceUnavailable:
		g.rej503++
	}
	g.b.res.op(ok, "%s on pool %s: %s", path, req.pool, why)
	g.mu.Unlock()
	return rep
}

// closedLoop runs the clients until the deadline: client c sends
// next(c, i) for i = 0, 1, ... and waits for each reply before sending
// the next; each client sends at least minRequests. It returns every
// reply and the wall time the phase took.
func (g *loadgen) closedLoop(name string, deadline time.Time, minRequests int, next func(client, i int) request) ([]reply, time.Duration) {
	parent := g.b.tr.begin(name, -1, g.b.tr.newOp())
	defer g.b.tr.end(parent)
	perClient := make([][]reply, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < minRequests || time.Now().Before(deadline); i++ {
				perClient[c] = append(perClient[c], g.do(next(c, i), &buf, parent))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reply
	for _, r := range perClient {
		all = append(all, r...)
	}
	return all, elapsed
}

// latencies returns the millisecond latencies of the 200 replies of
// the given kind ("" for every kind).
func latencies(replies []reply, kind string) []float64 {
	var out []float64
	for _, r := range replies {
		if r.err == nil && r.status == http.StatusOK && (kind == "" || r.req.kind == kind) {
			out = append(out, ms(r.latency))
		}
	}
	return out
}

// spmvRequests pre-encodes the distinct /v1/spmv bodies for one pool.
// The response carries only y, so both pools share the expected bodies.
func (g *loadgen) spmvRequests(pool string) ([]request, error) {
	reqs := make([]request, len(g.b.in.serveXs))
	for i, x := range g.b.in.serveXs {
		var err error
		if reqs[i], err = encodeRequest("spmv", pool, fmt.Sprintf("spmv/%d", i), map[string]any{"x": x}); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// spmvPhase measures closed loops of /v1/spmv requests against one
// pool, in segments that each begin with an unmeasured warm-up. It pools
// the 200-latencies and the measured time of its segments.
type spmvPhase struct {
	g        *loadgen
	name     string
	reqs     []request
	lat      []float64
	measured time.Duration
}

func (g *loadgen) newSpMVPhase(name, pool string) (*spmvPhase, error) {
	reqs, err := g.spmvRequests(pool)
	return &spmvPhase{g: g, name: name, reqs: reqs}, err
}

// segment runs a warm-up for a tenth of the window and a measured
// closed loop for the rest.
func (p *spmvPhase) segment(window time.Duration) {
	rotate := func(c, i int) request { return p.reqs[(c*len(p.reqs)/clients+i)%len(p.reqs)] }
	p.g.closedLoop(p.name+"/warm-up", time.Now().Add(window/10), 1, rotate)
	replies, elapsed := p.g.closedLoop(p.name, time.Now().Add(window-window/10), 1, rotate)
	p.lat = append(p.lat, latencies(replies, "")...)
	p.measured += elapsed
}

func (p *spmvPhase) rps() float64 { return float64(len(p.lat)) / p.measured.Seconds() }

// serveSegments is how many times phases A and B alternate, for the
// reason the library phases run in rounds.
const serveSegments = 4

// daemonEndToEnd measures phase A (unbatched pool) and phase B (batched
// pool) in alternating segments and records the five daemon end-to-end
// metrics.
func (b *bench) daemonEndToEnd(d *daemon) error {
	g, err := newLoadgen(b, d)
	if err != nil {
		return err
	}
	phaseA, err := g.newSpMVPhase("serve/A", poolPlain)
	if err != nil {
		return err
	}
	phaseB, err := g.newSpMVPhase("serve/B", poolBatched)
	if err != nil {
		return err
	}
	for s := 0; s < serveSegments; s++ {
		phaseA.segment(b.window(shareServe) / serveSegments)
		phaseB.segment(b.window(shareServe) / serveSegments)
	}
	if len(phaseA.lat) == 0 || len(phaseB.lat) == 0 {
		return fmt.Errorf("serve: no request succeeded")
	}
	b.res.value("serve_spmv_rps", phaseA.rps())
	b.res.samples("serve_spmv_p50_ms", phaseA.lat)
	b.res.value("serve_spmv_p90_ms", percentile(phaseA.lat, 0.9))
	b.res.Notes["serve_spmv_requests"] = float64(len(phaseA.lat))
	b.res.value("serve_batched_rps", phaseB.rps())
	b.res.samples("serve_batched_p50_ms", phaseB.lat)
	b.res.Notes["serve_batched_requests"] = float64(len(phaseB.lat))
	return nil
}

// daemonTraced runs short A and B phases, the mixed phase C, direct
// Pool.Do calls and a /metrics scrape under the tracer, then checks the
// pools' aggregated ledger against a replay of the same requests on a
// direct engine. It records the serve.* metrics.
func (b *bench) daemonTraced(d *daemon, window time.Duration) error {
	res, in := b.res, b.in
	g, err := newLoadgen(b, d)
	if err != nil {
		return err
	}
	quarter := window / 4

	phaseA, err := g.newSpMVPhase("serve/A", poolPlain)
	if err != nil {
		return err
	}
	phaseA.segment(quarter)
	if len(phaseA.lat) == 0 {
		return fmt.Errorf("serve/A: no request succeeded")
	}
	spmvP50, spmvReqs := median(phaseA.lat), phaseA.reqs

	// Pool.Do direct: the engine as the handler reaches it, with HTTP
	// and JSON taken away.
	var doMS []float64
	root := b.tr.begin("serve.Pool.Do", -1, b.tr.newOp())
	for i := 0; i < 9; i++ {
		x := in.serveXs[i%len(in.serveXs)]
		var y vector.Dense
		d0 := b.timed("serve.Pool.Do/SpMV", root, func() {
			err = d.plain.Do(context.Background(), func(eng *core.Engine) error {
				var err error
				y, err = eng.SpMV(in.served, x, nil)
				return err
			})
		})
		doMS = append(doMS, ms(d0))
		want, werr := g.runDirect(spmvReqs[i%len(spmvReqs)])
		res.op(err == nil && werr == nil && hashFloats(y) == hashFloats(want), "Pool.Do SpMV: %v", err)
		g.tally[poolPlain]["spmv"]++
	}
	b.tr.end(root)
	res.samples("serve.pool_do_spmv_ms", doMS)
	res.value("serve.http_overhead_ms", spmvP50-median(doMS))

	phaseB, err := g.newSpMVPhase("serve/B", poolBatched)
	if err != nil {
		return err
	}
	phaseB.segment(quarter)

	// Phase C: client 0 loops /v1/spmv while client 1 rotates the three
	// long-running routes.
	keys := make([]uint64, len(in.serveFrontier.Recs))
	vals := make([]float64, len(keys))
	for i, r := range in.serveFrontier.Recs {
		keys[i], vals[i] = r.Key, r.Val
	}
	var long [3]request
	if long[0], err = encodeRequest("pagerank", poolPlain, "pagerank", map[string]any{"damping": damping, "tol": pagerankTol, "max_iters": pagerankMax}); err != nil {
		return err
	}
	if long[1], err = encodeRequest("spmspv", poolPlain, "spmspv", map[string]any{"keys": keys, "vals": vals}); err != nil {
		return err
	}
	x0 := vector.NewDense(int(in.served.Cols))
	x0.Fill(1 / float64(in.served.Cols))
	if long[2], err = encodeRequest("iterate", poolPlain, "iterate", map[string]any{"x0": x0, "iterations": iterations, "damping": damping}); err != nil {
		return err
	}
	replies, elapsed := g.closedLoop("serve/C", time.Now().Add(2*quarter), len(long), func(c, i int) request {
		if c == 0 {
			return spmvReqs[i%len(spmvReqs)]
		}
		return long[i%len(long)]
	})
	for _, k := range []string{"pagerank", "spmspv", "iterate"} {
		l := latencies(replies, k)
		if len(l) == 0 {
			return fmt.Errorf("serve/C: no /v1/%s request succeeded", k)
		}
		res.samples("serve."+k+"_p50_ms", l)
	}
	res.value("serve.mixed_spmv_p90_ms", percentile(latencies(replies, "spmv"), 0.9))
	res.value("serve.mixed_rps", float64(len(latencies(replies, "")))/elapsed.Seconds())

	scrape := b.timed("http /metrics", -1, func() {
		var resp *http.Response
		if resp, err = d.client.Get(d.base + "/metrics"); err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	res.op(err == nil, "/metrics: %v", err)
	res.value("serve.metrics_scrape_ms", ms(scrape))
	res.value("serve.rejected_429", float64(g.rej429))
	res.value("serve.rejected_503", float64(g.rej503))

	bs, _ := d.batched.BatchStats()
	// A flush answers its requests before it publishes its ledger; wait
	// for the last one.
	for wait := 0; wait < 200 && int(bs.Requests) < g.tally[poolBatched]["spmv"]; wait++ {
		time.Sleep(5 * time.Millisecond)
		bs, _ = d.batched.BatchStats()
	}
	res.value("serve.flushes", float64(bs.Flushes))
	res.value("serve.batch_occupancy", float64(bs.Requests)/float64(bs.Flushes))

	want, err := g.replayLedger(bs, append(long[:], spmvReqs[0]))
	if err != nil {
		return err
	}
	matches := d.server.AggregatedLedger() == want
	res.op(matches, "aggregated pool ledger differs from the replay of the same requests on a direct engine")
	if matches {
		res.value("serve.ledger_matches", 1)
	} else {
		res.value("serve.ledger_matches", 0)
	}
	return nil
}

// replayLedger computes what the two pools' aggregated ledger must be:
// the counter movement of each operation on a direct engine, times how
// often that operation completed. A request's ledger does not depend on
// its vector's values, only on the operation; a coalesced flush charges
// the matrix once, so the batched pool is replayed per flush size.
func (g *loadgen) replayLedger(bs serve.BatchStats, reqs []request) (report.Counters, error) {
	var total report.Counters
	add := func(times int, run func() error) error {
		if times == 0 {
			return nil
		}
		g.direct.ResetCounters()
		if err := run(); err != nil {
			return err
		}
		delta := g.direct.Counters()
		for i := 0; i < times; i++ {
			total = total.Add(delta)
		}
		return nil
	}
	for _, req := range reqs {
		req := req
		err := add(g.tally[poolPlain][req.kind], func() error { _, err := g.runDirect(req); return err })
		if err != nil {
			return total, err
		}
	}
	// With MaxBatch 2 the first two occupancy buckets count the flushes
	// of exactly one and of exactly two requests.
	a, x := g.b.in.served, g.b.in.serveXs[0]
	if err := add(int(bs.Occupancy[0]), func() error { _, err := g.direct.SpMV(a, x, nil); return err }); err != nil {
		return total, err
	}
	err := add(int(bs.Occupancy[1]), func() error {
		_, err := g.direct.SpMVBlock(a, []vector.Dense{x, x}, nil)
		return err
	})
	return total, err
}
