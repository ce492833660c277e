// Package merge implements the multi-way merge machinery at the heart of
// Two-Step SpMV step 2: three software K-way mergers — the binary-heap
// Merged in this file (the independent functional reference), the
// tournament loser tree LoserTreeMerged (loser.go), and the Merge Path
// kernel (mergepath.go) — and a cycle-approximate model of the paper's
// binary-tree Merge Core with SRAM-block-packed pipeline FIFOs (Fig. 6).
package merge

import (
	"container/heap"

	"mwmerge/internal/types"
)

// Source yields records in ascending key order. Next returns the next
// record, or ok=false when exhausted.
type Source interface {
	Next() (rec types.Record, ok bool)
}

// SliceSource adapts a sorted record slice to a Source.
type SliceSource struct {
	recs []types.Record
	pos  int
}

// NewSliceSource wraps recs, which must already be sorted by key.
func NewSliceSource(recs []types.Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (types.Record, bool) {
	if s.pos >= len(s.recs) {
		return types.Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Remaining returns the number of unread records.
func (s *SliceSource) Remaining() int { return len(s.recs) - s.pos }

type ltItem struct {
	rec types.Record
	src int
	in  Source
}

type ltHeap []ltItem

func (h ltHeap) Len() int { return len(h) }
func (h ltHeap) Less(i, j int) bool {
	if h[i].rec.Key != h[j].rec.Key {
		return h[i].rec.Key < h[j].rec.Key
	}
	return h[i].src < h[j].src
}
func (h ltHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ltHeap) Push(x interface{}) { *h = append(*h, x.(ltItem)) }
func (h *ltHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Merged merges K ascending sources into a single ascending stream on a
// binary heap. Ties across sources are broken by source index, making
// the merge stable with respect to source order.
type Merged struct {
	h ltHeap
}

// NewMerged builds a merger over the given sources.
func NewMerged(sources []Source) *Merged {
	m := &Merged{h: make(ltHeap, 0, len(sources))}
	for i, s := range sources {
		if rec, ok := s.Next(); ok {
			m.h = append(m.h, ltItem{rec: rec, src: i, in: s})
		}
	}
	heap.Init(&m.h)
	return m
}

// Next implements Source, yielding the globally smallest remaining record.
func (m *Merged) Next() (types.Record, bool) {
	if len(m.h) == 0 {
		return types.Record{}, false
	}
	top := m.h[0]
	if rec, ok := top.in.Next(); ok {
		m.h[0] = ltItem{rec: rec, src: top.src, in: top.in}
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return top.rec, true
}

// Accumulator wraps an ascending stream and sums consecutive records with
// equal keys, yielding one record per distinct key — the reduction the
// merge network performs while accumulating intermediate vectors into y.
type Accumulator struct {
	in      Source
	pending types.Record
	have    bool
}

// NewAccumulator wraps in.
func NewAccumulator(in Source) *Accumulator { return &Accumulator{in: in} }

// Next implements Source.
func (a *Accumulator) Next() (types.Record, bool) {
	if !a.have {
		r, ok := a.in.Next()
		if !ok {
			return types.Record{}, false
		}
		a.pending, a.have = r, true
	}
	cur := a.pending
	for {
		r, ok := a.in.Next()
		if !ok {
			a.have = false
			return cur, true
		}
		if r.Key == cur.Key {
			cur.Val += r.Val
			continue
		}
		a.pending = r
		return cur, true
	}
}

// MergeAccumulate merges sorted record lists and sums duplicate keys,
// returning a strictly ascending record slice. It uses the tournament
// loser tree (ceil(log2 K) comparisons per record); the heap-based Merged
// remains as an independent cross-check.
func MergeAccumulate(lists [][]types.Record) []types.Record {
	var ws Workspace
	return ws.MergeAccumulateInto(nil, lists)
}
