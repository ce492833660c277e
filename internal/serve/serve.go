// Package serve is the SpMV-as-a-service layer: a warmed pool of
// Two-Step engines per resident matrix, request admission control
// (capacity, deadline, bounded queue depth), and the HTTP surface the
// spmvd daemon mounts. The concurrency story is the pool, not a shared
// engine: each core.Engine's scratch state is confined to the goroutine
// driving its public methods, so a request checks an engine out, runs on
// it exclusively, and returns it. Engines publish their cumulative
// account on every return, and the pool's aggregated ledger —
// the sum of those published snapshots — is rendered live on /metrics
// through the same Prometheus exposition the run reports use.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mwmerge/internal/core"
	"mwmerge/internal/matrix"
	"mwmerge/internal/report"
	"mwmerge/internal/vector"
)

// Admission errors. The HTTP layer maps them to distinct status codes
// (429 and 503); both reject the request before any engine work starts.
var (
	// ErrQueueFull reports that every engine is busy and the bounded
	// wait queue is at capacity.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrDeadline reports that the request's deadline expired before an
	// engine became available.
	ErrDeadline = errors.New("serve: deadline exceeded before work started")
)

// PoolConfig describes one matrix pool.
type PoolConfig struct {
	// Name is the identifier requests address the matrix by.
	Name string
	// Matrix is the resident operand; the pool treats it as immutable,
	// which is what lets every member cache its plan across requests.
	Matrix *matrix.COO
	// Engine parameterizes every pool member. Engine.Recorder must be
	// nil: recorders are per-run, and the pool's observability surface
	// is the published ledger instead. A member built from the default
	// worker counts (0) runs both steps on every core, so Size members
	// serving at once oversubscribe the host Size-fold; a caller that
	// shares the host sets Engine.Workers and Engine.Merge.MergeWorkers
	// to a share of GOMAXPROCS, as spmvd does.
	Engine core.Config
	// Size is the number of warmed engines (default 1). It bounds the
	// requests served concurrently against this matrix.
	Size int
	// MaxQueue bounds how many requests may wait for an engine beyond
	// the Size already being served; further requests are rejected with
	// ErrQueueFull. 0 rejects as soon as every engine is busy.
	MaxQueue int
	// MaxBatch, when ≥ 2, enables same-matrix request coalescing: up to
	// MaxBatch queued /v1/spmv requests are served by one SpMVBlock call
	// on a single member, charging the matrix stream once per flush
	// instead of once per request. 0 or 1 disables batching.
	MaxBatch int
	// BatchWindow is how long the batcher holds the first queued request
	// waiting for same-matrix company before flushing what accumulated
	// (default 2ms when batching is enabled). Reaching MaxBatch flushes
	// immediately, window notwithstanding.
	BatchWindow time.Duration
}

// member is one pool engine plus its last published account. The engine
// itself is only ever touched by the goroutine that checked it out; the
// published account is the cross-goroutine view. It is named only in
// publish and last, both of which hold mu, so aggregation never races
// with an in-flight request (go test -race ./internal/serve is the
// detector: TestServeSoak scrapes Ledger() concurrently).
type member struct {
	eng *core.Engine

	mu        sync.Mutex
	published report.Counters
	requests  uint64
}

// publish refreshes the member's account from its engine, crediting n
// completed requests. Called by the goroutine holding the engine,
// immediately before returning it.
func (m *member) publish(n uint64) {
	c := m.eng.Counters()
	m.mu.Lock()
	m.published = c
	m.requests += n
	m.mu.Unlock()
}

// last returns the member's most recently published account and its
// completed-request count.
func (m *member) last() (report.Counters, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.published, m.requests
}

// Pool is a warmed, fixed-size set of engines serving one matrix.
type Pool struct {
	name    string
	a       *matrix.COO
	cfg     core.Config
	members []*member
	idle    chan *member
	waiting chan struct{} // queue tokens; capacity = MaxQueue
	batch   *batcher      // non-nil when MaxBatch enabled coalescing
}

// NewPool builds and warms a pool: every member runs one SpMV against
// the resident matrix so its plan cache, detector, and scratch arenas
// are hot, then resets its counters so the serving ledger starts at
// zero. The warm-up doubles as admission-time validation — a matrix the
// engines cannot serve fails here, not on the first request.
func NewPool(pc PoolConfig) (*Pool, error) {
	if pc.Name == "" {
		return nil, fmt.Errorf("serve: pool needs a name")
	}
	if pc.Matrix == nil {
		return nil, fmt.Errorf("serve: pool %q needs a matrix", pc.Name)
	}
	if pc.Engine.Recorder != nil {
		return nil, fmt.Errorf("serve: pool %q: per-engine recorders are not supported; scrape /metrics instead", pc.Name)
	}
	size := pc.Size
	if size < 1 {
		size = 1
	}
	if pc.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: pool %q: negative queue depth", pc.Name)
	}
	if pc.MaxBatch < 0 {
		return nil, fmt.Errorf("serve: pool %q: negative batch size", pc.Name)
	}
	if pc.BatchWindow < 0 {
		return nil, fmt.Errorf("serve: pool %q: negative batch window", pc.Name)
	}
	p := &Pool{
		name:    pc.Name,
		a:       pc.Matrix,
		cfg:     pc.Engine,
		idle:    make(chan *member, size),
		waiting: make(chan struct{}, pc.MaxQueue),
	}
	warmX := vector.NewDense(int(pc.Matrix.Cols))
	for i := 0; i < size; i++ {
		eng, err := core.New(pc.Engine)
		if err != nil {
			return nil, fmt.Errorf("serve: pool %q: %w", pc.Name, err)
		}
		if _, err := eng.SpMV(pc.Matrix, warmX, nil); err != nil {
			return nil, fmt.Errorf("serve: pool %q warm-up: %w", pc.Name, err)
		}
		eng.ResetCounters()
		m := &member{eng: eng}
		p.members = append(p.members, m)
		p.idle <- m
	}
	if pc.MaxBatch >= 2 {
		window := pc.BatchWindow
		if window == 0 {
			window = 2 * time.Millisecond
		}
		p.batch = &batcher{
			p: p, window: window, maxBatch: pc.MaxBatch,
			admit: make(chan struct{}, size*pc.MaxBatch+pc.MaxQueue),
		}
	}
	return p, nil
}

// Size returns the number of engines in the pool.
func (p *Pool) Size() int { return len(p.members) }

// checkout is the pool's only checkout path, and the only code that
// touches p.idle after NewPool: it takes a member, runs fn on its engine
// exclusively, publishes the engine's cumulative ledger crediting the
// requests fn reports served, and returns the member in a defer — so
// every exit gives the engine back and nothing can use it afterwards.
// A member is taken immediately when one is idle; otherwise the call
// waits until one returns or ctx expires, first taking a bounded queue
// slot unless the request was admitted upstream (the batcher bounds its
// own admissions). Both rejections, ErrQueueFull and ErrDeadline, fire
// before fn runs.
func (p *Pool) checkout(ctx context.Context, admitted bool, fn func(eng *core.Engine) (served int, err error)) error {
	var m *member
	select {
	case m = <-p.idle:
	default:
		if !admitted {
			select {
			case p.waiting <- struct{}{}:
			default:
				return ErrQueueFull
			}
		}
		select {
		case m = <-p.idle:
		case <-ctx.Done():
		}
		if !admitted {
			<-p.waiting
		}
		if m == nil {
			return ErrDeadline
		}
	}
	served := 0
	defer func() {
		m.publish(uint64(served))
		p.idle <- m
	}()
	if ctx.Err() != nil {
		return ErrDeadline
	}
	var err error
	served, err = fn(m.eng)
	return err
}

// Do checks out a warmed engine, runs fn on it exclusively, publishes
// the engine's cumulative ledger, and returns it to the pool. fn must
// not retain the engine (or internal buffers other than returned
// results, which every engine entry point detaches) past its return.
// Admission failures surface as ErrQueueFull or ErrDeadline without fn
// ever running.
func (p *Pool) Do(ctx context.Context, fn func(eng *core.Engine) error) error {
	return p.checkout(ctx, false, func(eng *core.Engine) (int, error) { return 1, fn(eng) })
}

// CheckCapacity is the pool's admission-time capacity check: the shared
// core.Config.CheckIterativeCapacity semantics applied to the resident
// matrix, so an over-capacity request (e.g. ITS overlap halving the
// bound) is rejected before an engine is acquired, with exactly the
// error the engine itself would return.
func (p *Pool) CheckCapacity(overlap bool) error {
	return p.cfg.CheckIterativeCapacity(p.a.Rows, overlap)
}

// Ledger returns the aggregated pool account — the component-wise sum
// of every member's last published counters — plus the number of
// completed requests. In-flight requests are invisible until their
// engine returns, so the aggregate is always a consistent sum of whole
// requests.
func (p *Pool) Ledger() (report.Counters, uint64) {
	var c report.Counters
	var n uint64
	for _, m := range p.members {
		mc, mn := m.last()
		c = c.Add(mc)
		n += mn
	}
	return c, n
}
