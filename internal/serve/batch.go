package serve

// Same-matrix request batching (DESIGN.md §11): a pool with MaxBatch ≥ 2
// coalesces queued /v1/spmv requests into one Engine.SpMVBlock call on a
// single member. The first request to arrive arms the batch window;
// reaching MaxBatch flushes immediately (the deterministic trigger tests
// rely on), otherwise the timer flushes whatever accumulated. One matrix
// pass then serves the whole flush, and the per-request counter deltas
// the block call splits out become each request's run report. Responses
// are bit-identical to unbatched serving: SpMVBlock computes every
// column exactly as a sequential SpMV would.

import (
	"context"
	"sync"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
)

// occupancyBuckets are the histogram upper bounds of the
// requests-per-flush distribution exposed on /metrics; the final bucket
// is +Inf.
var occupancyBuckets = [...]int{1, 2, 4, 8, 16}

// batchOut is one request's share of a flushed batch.
type batchOut struct {
	y     vector.Dense
	delta report.Counters
	err   error
}

// batchReq is one queued request: its operands, its admission context,
// and the buffered reply channel its flush answers on (capacity 1, so a
// flusher never blocks on a request that already gave up).
type batchReq struct {
	ctx  context.Context
	x    vector.Dense
	yIn  vector.Dense
	done chan batchOut
}

// batcher coalesces a pool's SpMV requests. Requests pend under mu until
// either the window timer fires or MaxBatch arrive; each flush runs as
// its own goroutine so a batch waiting for an engine never blocks the
// next window from filling.
type batcher struct {
	p        *Pool
	window   time.Duration
	maxBatch int
	// admit holds one token per request between submit and its flush's
	// reply; capacity Size·MaxBatch + MaxQueue, so requests in the
	// batcher — and with them the flush goroutines waiting for a member
	// — are bounded like the unbatched queue.
	admit chan struct{}

	mu      sync.Mutex
	pending []*batchReq
	timer   *time.Timer
	// Flush accounting behind Pool.BatchStats and the /metrics
	// occupancy histogram; touched only by record and stats, under mu.
	flushed BatchStats
}

// submit queues one request and blocks until its flush replies or ctx
// expires; with the batcher at its admission bound the request is
// rejected with ErrQueueFull before it joins a window. A request whose
// deadline passes mid-window returns ErrDeadline here — and is skipped
// by its flush when it comes — so an expired request never poisons the
// batch it was queued into.
func (b *batcher) submit(ctx context.Context, x, yIn vector.Dense) (vector.Dense, report.Counters, error) {
	select {
	case b.admit <- struct{}{}:
	default:
		return nil, report.Counters{}, ErrQueueFull
	}
	r := &batchReq{ctx: ctx, x: x, yIn: yIn, done: make(chan batchOut, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, r)
	var batch []*batchReq
	if len(b.pending) >= b.maxBatch {
		batch = b.pending
		b.pending = nil
		if b.timer != nil {
			b.timer.Stop()
		}
	} else if len(b.pending) == 1 {
		if b.timer == nil {
			b.timer = time.AfterFunc(b.window, b.windowExpired)
		} else {
			b.timer.Reset(b.window)
		}
	}
	b.mu.Unlock()
	if batch != nil {
		go b.flush(batch)
	}
	select {
	case out := <-r.done:
		return out.y, out.delta, out.err
	case <-ctx.Done():
		return nil, report.Counters{}, ErrDeadline
	}
}

// windowExpired is the timer path: flush whatever accumulated when the
// batch window closes before MaxBatch arrived. A stale firing that lost
// the race against a count-triggered flush finds pending empty and does
// nothing.
func (b *batcher) windowExpired() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// reply answers one request and gives its admission token back.
func (b *batcher) reply(r *batchReq, out batchOut) {
	r.done <- out
	<-b.admit
}

// flush serves one batch with a single SpMVBlock call on a single pool
// member, then distributes each column's output and counter delta to
// its request. The member is published and back in the pool before any
// reply goes out, so a client that has its answer finds it in Ledger().
func (b *batcher) flush(batch []*batchReq) {
	// Answer requests whose deadline expired while queued and exclude
	// them from the block call.
	live := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			b.reply(r, batchOut{err: ErrDeadline})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	xs := make([]vector.Dense, len(live))
	var yIns []vector.Dense
	for i, r := range live {
		xs[i] = r.x
		if r.yIn != nil && yIns == nil {
			yIns = make([]vector.Dense, len(live))
		}
	}
	if yIns != nil {
		for i, r := range live {
			yIns[i] = r.yIn
		}
	}
	// Each request's deadline was enforced at submit and above; the
	// checkout itself is bounded by the pool's own service time.
	var res core.BlockResult
	err := b.p.checkout(context.Background(), true, func(eng *core.Engine) (int, error) {
		var err error
		if res, err = eng.SpMVBlock(b.p.a, xs, yIns); err != nil {
			return 0, err
		}
		return len(live), nil
	})
	b.record(len(live))
	for i, r := range live {
		if err != nil {
			// Engine-level rejection (defensive: operands are
			// pre-validated before they may join a batch).
			b.reply(r, batchOut{err: err})
			continue
		}
		b.reply(r, batchOut{y: res.Ys[i], delta: res.Deltas[i]})
	}
}

// record books one flush into the occupancy histogram.
func (b *batcher) record(nReq int) {
	i := 0
	for i < len(occupancyBuckets) && nReq > occupancyBuckets[i] {
		i++
	}
	b.mu.Lock()
	b.flushed.Flushes++
	b.flushed.Requests += uint64(nReq)
	b.flushed.Occupancy[i]++
	b.mu.Unlock()
}

// stats returns the flush accounting so far.
func (b *batcher) stats() BatchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushed
}

// Batching reports whether the pool coalesces SpMV requests.
func (p *Pool) Batching() bool { return p.batch != nil }

// BatchStats is a pool batcher's observability snapshot.
type BatchStats struct {
	// Flushes counts SpMVBlock calls issued for coalesced batches.
	Flushes uint64
	// Requests counts the requests those flushes served; Requests/Flushes
	// is the mean batch occupancy.
	Requests uint64
	// Occupancy[i] counts flushes whose request count fell in histogram
	// bucket i (upper bounds occupancyBuckets; the last bucket is +Inf).
	Occupancy [len(occupancyBuckets) + 1]uint64
}

// BatchStats returns the batcher's counters; ok is false when batching
// is disabled for this pool.
func (p *Pool) BatchStats() (BatchStats, bool) {
	if p.batch == nil {
		return BatchStats{}, false
	}
	return p.batch.stats(), true
}
