package merge

import (
	"math/bits"

	"mwmerge/internal/types"
)

// mergePathChunkRecords is the output size of one diagonal-partitioned
// leaf sub-merge. 1024 records keep a leaf's working set (two input
// spans plus the output span, 16 B/record) around 48 KiB — cache-sized,
// so each leaf streams through near memory without conflict misses,
// which is the Merge Path blocking argument (Green, Odeh & Birk).
const mergePathChunkRecords = 1024

// MergePathWorkspace is the Merge-Path counterpart of Workspace: it
// merge-accumulates K sorted lists by pairwise 2-way merges whose output
// is cut into equal-size, cache-sized sub-merges by diagonal search and
// executed as branch-free leaf kernels (DESIGN.md §12). The visit order
// is identical to the loser tree's — every record sequence is ordered by
// (key, source index, position) — so float accumulation is bit-identical
// to Workspace.MergeAccumulateInto; only the wall clock differs.
//
// A single goroutine owns a MergePathWorkspace; the merge arena and run
// tables are recycled across calls, so steady-state reuse is
// allocation-free. The zero value is ready to use.
type MergePathWorkspace struct {
	bufA         []types.Record   // the one scratch arena; levels ping-pong between it and dst
	runsA, runsB [][]types.Record // per-level run tables
}

// MergeAccumulateInto merges sorted record lists and sums duplicate
// keys, exactly like Workspace.MergeAccumulateInto (bit-identical
// output), but through the Merge-Path pairwise kernel instead of the
// loser tree. dst is truncated and reused when its capacity suffices;
// it must not alias any list.
func (ws *MergePathWorkspace) MergeAccumulateInto(dst []types.Record, lists [][]types.Record) []types.Record {
	dst, cur, spare := ws.sized(dst, lists)
	if len(cur) == 0 {
		return dst
	}
	// Pairwise reduction: every level stably merges adjacent runs into
	// the arena the current runs do NOT occupy, alternating between dst
	// and bufA (level 0 reads the caller's lists, so it may write
	// either). With ⌈log₂ live⌉ levels, starting in dst when that count
	// is odd makes the last level land in dst, where accumulateInto
	// compacts it in place. Adjacent pairing preserves relative list
	// order, which is what keeps the merged sequence ordered by (key,
	// original list index, position) — the loser tree's exact visit
	// order.
	toDst := bits.Len(uint(len(cur)-1))%2 == 1
	for len(cur) > 1 {
		out := ws.bufA
		if toDst {
			out = dst[:cap(dst)]
		}
		n, off := 0, 0
		for i := 0; i+1 < len(cur); i += 2 {
			a, b := cur[i], cur[i+1]
			w := len(a) + len(b)
			mergeRuns(out[off:off+w], a, b)
			spare[n] = out[off : off+w]
			n++
			off += w
		}
		if len(cur)%2 == 1 {
			// Odd run carried by copy, so the whole next level lives in
			// one arena and never overlaps the arena it reads from.
			last := cur[len(cur)-1]
			copy(out[off:off+len(last)], last)
			spare[n] = out[off : off+len(last)]
			n++
			off += len(last)
		}
		cur, spare = spare[:n], cur
		toDst = !toDst
	}
	return accumulateInto(dst, cur[0])
}

// sized is the warm-up/arena-growth half of the kernel: it resizes the
// output buffer, the merge arena, and the run tables, and seeds
// level 0 with the non-empty list views. Dropping empty lists keeps the
// reduction tree shallow without disturbing the (key, source index)
// order — relative order of the survivors is preserved. Everything
// after this call is allocation-free (TestMergePathWarmAllocFree).
func (ws *MergePathWorkspace) sized(dst []types.Record, lists [][]types.Record) ([]types.Record, [][]types.Record, [][]types.Record) {
	total, live := 0, 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			live++
		}
	}
	if cap(dst) < total {
		dst = make([]types.Record, 0, total)
	} else {
		dst = dst[:0]
	}
	if live == 0 {
		return dst, nil, nil
	}
	ws.runsA = grown(ws.runsA, live)
	ws.runsB = grown(ws.runsB, live)
	li := 0
	for _, l := range lists {
		if len(l) > 0 {
			ws.runsA[li] = l
			li++
		}
	}
	if live > 2 {
		ws.bufA = grown(ws.bufA, total)
	}
	return dst, ws.runsA[:live], ws.runsB[:live]
}

// mergeRuns stably merges runs a and b into out, whose length must be
// len(a)+len(b) and which must alias neither input. The output is cut
// into mergePathChunkRecords-sized spans; each span's input bounds come
// from a diagonal search, and the span itself is a branch-free leaf
// merge. Equal keys take from a first (the lower original list index).
func mergeRuns(out, a, b []types.Record) {
	i, j := 0, 0
	for d := 0; d < len(out); d += mergePathChunkRecords {
		e := d + mergePathChunkRecords
		if e > len(out) {
			e = len(out)
		}
		i1 := mergePathSearch(a, b, e)
		mergeLeaf(out[d:e], a, b, i, i1, j, e-i1)
		i, j = i1, e-i1
	}
}

// mergePathSearch returns how many records of a appear among the first
// d outputs of the stable merge of a and b — the intersection of output
// diagonal d with the merge path. It binary-searches the diagonal with
// the tie-to-a convention (a[i] is consumed before b[j] iff
// a[i].Key <= b[j].Key), so the split reproduces the stable merge
// exactly; cost O(log min(d, len(a), len(b))) per chunk boundary.
func mergePathSearch(a, b []types.Record, d int) int {
	lo, hi := d-len(b), d
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].Key <= b[d-mid-1].Key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeLeaf merges a[i:i1] and b[j:j1] into out (len(out) must equal
// (i1-i)+(j1-j)) with a branch-free select: the pick of the smaller
// head is an arithmetic index, not a data-dependent branch, so skewed
// interleavings cost no mispredictions. The bounds are exact (they came
// from the diagonal search), so once either span drains the rest is a
// straight copy — on heavily skewed inputs most of the work degenerates
// into these copies, which is where Merge Path beats the loser tree's
// per-record tournament replay.
func mergeLeaf(out, a, b []types.Record, i, i1, j, j1 int) {
	o := 0
	var pick [2]types.Record
	for i < i1 && j < j1 {
		// Both spans are non-empty for at least min(remaining) steps:
		// the inner loop needs no per-step bounds checks beyond the
		// trip count, keeping the select branch-free.
		n := i1 - i
		if m := j1 - j; m < n {
			n = m
		}
		for k := 0; k < n; k++ {
			ra, rb := a[i], b[j]
			t := 0
			if rb.Key < ra.Key { // ties keep a: stable in list order
				t = 1
			}
			pick[0], pick[1] = ra, rb
			out[o] = pick[t]
			o++
			i += 1 - t
			j += t
		}
	}
	o += copy(out[o:], a[i:i1])
	copy(out[o:], b[j:j1])
}

// accumulateInto collapses equal-key neighbours of run into dst, whose
// capacity must be at least len(run), summing values left to right —
// the same order Accumulator applies over the loser tree's stream, so
// the floats are bit-identical. run either does not overlap dst or
// starts at dst[0]: the compaction writes index n only after reading
// index i ≥ n, so compacting forward in place is safe.
func accumulateInto(dst, run []types.Record) []types.Record {
	out := dst[:len(run)]
	n := 0
	for _, r := range run {
		if n > 0 && out[n-1].Key == r.Key {
			out[n-1].Val += r.Val
			continue
		}
		out[n] = r
		n++
	}
	return out[:n]
}

// MergePathAccumulate merges sorted record lists and sums duplicate
// keys through the Merge-Path kernel — the one-shot convenience over a
// throwaway workspace, bit-identical to MergeAccumulate.
func MergePathAccumulate(lists [][]types.Record) []types.Record {
	var ws MergePathWorkspace
	return ws.MergeAccumulateInto(nil, lists)
}
