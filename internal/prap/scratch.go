package prap

import (
	"sync"

	"mwmerge/internal/merge"
	"mwmerge/internal/types"
)

// mergeScratch is the network-owned arena recycled across Merge/MergeInto
// calls: the [radix][list] slot views, per-list route outcomes (counts and
// scatter cursors), per-core routing arenas, merge workspaces and output
// buffers, the store-queue counters, and the segmentPlan pending array.
// Every sub-buffer is indexed by list or core id (the routing arenas by
// disjoint per-list ranges), so the parallel phases never share an
// element and reuse cannot perturb the deterministic schedule. One
// merge run owns the arena at a time: callers acquire it with TryLock and
// fall back to a fresh arena when another Merge is in flight, which keeps
// the public API safe for concurrent use at the cost of allocations only
// on the contended path.
type mergeScratch struct {
	mu       sync.Mutex
	slots    [][][]types.Record // [radix][list] views into cores[radix].routed
	outcomes []routeOutcome     // per list, counters and cursors recycled
	cores    []coreScratch      // per merge core
	injected []uint64           // per core
	emitted  []uint64           // per core
	pending  []int32            // segmentPlan countdown arena
	plan     segmentPlan        // reused plan header
}

// coreScratch is the per-merge-core slice of the arena: the routing arena
// every list's radix-r slot is a view into (sized exactly to the core's
// routed records, list by list), the recycled merge-accumulate output
// buffer, and one workspace per kernel (only the configured kernel's
// workspace ever grows arenas). The scatter writes routed at disjoint
// per-list ranges; exactly one goroutine merges and drains core r, so
// cores[r] needs no lock.
type coreScratch struct {
	routed []types.Record
	merged []types.Record
	ws     merge.Workspace
	mp     merge.MergePathWorkspace
}

// acquire returns the network's arena when free, or a fresh one when a
// concurrent merge holds it. release must be called when the run is done.
func (n *Network) acquire() (scr *mergeScratch, release func()) {
	if n.scratch.mu.TryLock() {
		return &n.scratch, n.scratch.mu.Unlock
	}
	return &mergeScratch{}, func() {}
}

// slotsFor returns the [radix][list] slot matrix. routeLists overwrites
// every cell with a view into the core's routing arena; cells past nl
// are cleared so a shrunken call keeps no stale arena alive.
func (s *mergeScratch) slotsFor(p, nl int) [][][]types.Record {
	s.slots = resized(s.slots, p)
	for r, row := range s.slots {
		row = resized(row, nl)
		clear(row[nl:cap(row)])
		s.slots[r] = row
	}
	return s.slots
}

// outcomesFor returns the per-list route outcomes with zeroed counters
// and p-wide cursor arrays.
func (s *mergeScratch) outcomesFor(nl, p int) []routeOutcome {
	s.outcomes = resized(s.outcomes, nl)
	for i := range s.outcomes {
		out := &s.outcomes[i]
		*out = routeOutcome{perCore: zeroed(out.perCore, p), cursor: resized(out.cursor, p)}
	}
	return s.outcomes
}

// coresFor returns the per-core workspaces.
func (s *mergeScratch) coresFor(p int) []coreScratch {
	for len(s.cores) < p {
		s.cores = append(s.cores, coreScratch{})
	}
	s.cores = s.cores[:p]
	return s.cores
}

// countersFor returns the zeroed per-core injected/emitted counters.
func (s *mergeScratch) countersFor(p int) (injected, emitted []uint64) {
	s.injected = zeroed(s.injected, p)
	s.emitted = zeroed(s.emitted, p)
	return s.injected, s.emitted
}

// planFor builds the segment-publishing plan in the arena: the pending
// countdown array and the plan header are both recycled.
func (s *mergeScratch) planFor(dim, width uint64, cores int, publish func(int)) *segmentPlan {
	segs := int((dim + width - 1) / width)
	if cap(s.pending) < segs {
		s.pending = make([]int32, segs)
	}
	pending := s.pending[:segs]
	for i := range pending {
		pending[i] = int32(cores)
	}
	s.pending = pending
	s.plan = segmentPlan{width: width, segs: segs, pending: pending, publish: publish}
	return &s.plan
}

// resized returns s with length n, reusing its capacity when it suffices
// and allocating exactly n elements otherwise. Reused elements keep their
// old contents.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed resizes s to n and clears it, reusing capacity.
func zeroed(s []uint64, n int) []uint64 {
	s = resized(s, n)
	clear(s)
	return s
}
