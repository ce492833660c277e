package merge

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mwmerge/internal/types"
)

// bitsEqual compares record sequences bitwise: keys with ==, values by
// their IEEE-754 bit patterns, so even -0.0 vs +0.0 or differently-NaN
// divergences fail. This is the bit-identity bar the merge-path kernel
// must clear against the loser tree.
func bitsEqual(a, b []types.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || math.Float64bits(a[i].Val) != math.Float64bits(b[i].Val) {
			return false
		}
	}
	return true
}

// heapAccumulate is the second reference: the heap-based Merged merger
// behind the shared Accumulator.
func heapAccumulate(lists [][]types.Record) []types.Record {
	ss := make([]Source, len(lists))
	for i, l := range lists {
		ss[i] = NewSliceSource(l)
	}
	return drain(NewAccumulator(NewMerged(ss)))
}

func TestMergePathMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		lists := randomSortedLists(rng, 1+rng.Intn(16), 60, 50)
		got := MergePathAccumulate(lists)
		want := oracleAccumulate(lists)
		if !recordsEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: mismatch (got %d, want %d records)", trial, len(got), len(want))
		}
	}
}

func TestMergePathBitIdenticalToLoserTree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		// Small key spaces force heavy duplication across and within
		// lists, where a tie-order divergence would change float
		// accumulation order and break bitwise equality.
		keySpace := uint64(1 + rng.Intn(64))
		lists := randomSortedLists(rng, 1+rng.Intn(20), 80, keySpace)
		var lt Workspace
		want := lt.MergeAccumulateInto(nil, lists)
		got := MergePathAccumulate(lists)
		if !bitsEqual(got, want) {
			t.Fatalf("trial %d (keySpace %d): merge-path diverges from loser tree", trial, keySpace)
		}
	}
}

func TestMergePathEdgeCases(t *testing.T) {
	if out := MergePathAccumulate(nil); len(out) != 0 {
		t.Error("nil lists produced records")
	}
	if out := MergePathAccumulate([][]types.Record{{}, nil, {}}); len(out) != 0 {
		t.Error("all-empty lists produced records")
	}
	// Single list passes through accumulated.
	one := [][]types.Record{{{Key: 1, Val: 1}, {Key: 1, Val: 2}, {Key: 9, Val: 3}}}
	out := MergePathAccumulate(one)
	if !recordsEqual(out, []types.Record{{Key: 1, Val: 3}, {Key: 9, Val: 3}}, 0) {
		t.Errorf("single list: %v", out)
	}
	// Empty lists interleaved with live ones must not disturb order.
	lists := [][]types.Record{
		{}, {{Key: 5, Val: 1}}, nil, {{Key: 5, Val: 2}}, {}, {{Key: 2, Val: 4}},
	}
	var lt Workspace
	if !bitsEqual(MergePathAccumulate(lists), lt.MergeAccumulateInto(nil, lists)) {
		t.Error("interleaved empties diverge from loser tree")
	}
}

func TestMergePathStability(t *testing.T) {
	// Order-sensitive float sums: (a+b)+c differs bitwise from (a+c)+b
	// for these values, so any tie-order deviation is caught.
	a := []types.Record{{Key: 5, Val: 0.1}, {Key: 9, Val: 1e-17}}
	b := []types.Record{{Key: 5, Val: 0.2}, {Key: 9, Val: 1.0}}
	c := []types.Record{{Key: 5, Val: 0.3}, {Key: 9, Val: -1.0}}
	lists := [][]types.Record{a, b, c}
	var lt Workspace
	want := lt.MergeAccumulateInto(nil, lists)
	got := MergePathAccumulate(lists)
	if !bitsEqual(got, want) {
		t.Fatalf("tie accumulation order differs: got %v, want %v", got, want)
	}
}

func TestMergePathChunkBoundaries(t *testing.T) {
	// Lists sized around multiples of the leaf chunk exercise the
	// diagonal search at and across chunk edges, including the skewed
	// case where one list dominates a chunk entirely.
	rng := rand.New(rand.NewSource(13))
	sizes := [][]int{
		{mergePathChunkRecords, mergePathChunkRecords},
		{mergePathChunkRecords - 1, mergePathChunkRecords + 1},
		{2*mergePathChunkRecords + 3, 1},
		{1, 3 * mergePathChunkRecords},
		{mergePathChunkRecords, mergePathChunkRecords, mergePathChunkRecords, 7},
	}
	for si, sz := range sizes {
		lists := make([][]types.Record, len(sz))
		for i, n := range sz {
			l := make([]types.Record, n)
			key := uint64(0)
			for j := range l {
				key += uint64(rng.Intn(3)) // duplicates and runs included
				l[j] = types.Record{Key: key, Val: rng.Float64()}
			}
			lists[i] = l
		}
		var lt Workspace
		want := lt.MergeAccumulateInto(nil, lists)
		got := MergePathAccumulate(lists)
		if !bitsEqual(got, want) {
			t.Fatalf("size set %d (%v): diverges from loser tree", si, sz)
		}
	}
}

func TestMergePathWorkspaceReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var ws MergePathWorkspace
	var dst []types.Record
	for trial := 0; trial < 40; trial++ {
		lists := randomSortedLists(rng, 1+rng.Intn(12), 70, 40)
		fresh := MergePathAccumulate(lists)
		dst = ws.MergeAccumulateInto(dst, lists)
		if !bitsEqual(dst, fresh) {
			t.Fatalf("trial %d: reused workspace diverges from fresh run", trial)
		}
	}
}

// TestMergePathReuseHammer is the -race workspace hammer: goroutines
// each recycle their own workspace over shared read-only lists; every
// run must be bit-identical to a fresh single-shot reference. Any shared
// mutable state between workspaces shows up as a race or a divergence.
func TestMergePathReuseHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	inputs := make([][][]types.Record, 8)
	refs := make([][]types.Record, len(inputs))
	for i := range inputs {
		inputs[i] = randomSortedLists(rng, 1+rng.Intn(16), 120, 60)
		refs[i] = MergePathAccumulate(inputs[i])
	}
	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ws MergePathWorkspace
			var dst []types.Record
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(inputs)
				dst = ws.MergeAccumulateInto(dst, inputs[i])
				if !bitsEqual(dst, refs[i]) {
					errs <- "reused workspace run diverged from fresh reference"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// FuzzMergeKernels cross-checks the merge-path kernel against both
// reference mergers — the loser tree and the heap-based Merged — on
// randomized inputs: duplicate keys across and within lists, empty
// lists, a single list, and no lists at all.
func FuzzMergeKernels(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(30), uint16(20))
	f.Add(int64(2), uint8(0), uint8(10), uint16(5))
	f.Add(int64(3), uint8(1), uint8(50), uint16(1))
	f.Add(int64(4), uint8(17), uint8(3), uint16(2))
	f.Add(int64(5), uint8(9), uint8(0), uint16(100))
	f.Fuzz(func(t *testing.T, seed int64, nlists, maxLen uint8, keySpace uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nlists % 24)
		lists := randomSortedLists(rng, n, int(maxLen), uint64(keySpace)+1)
		got := MergePathAccumulate(lists)
		var lt Workspace
		tree := lt.MergeAccumulateInto(nil, lists)
		heap := heapAccumulate(lists)
		if !bitsEqual(got, tree) {
			t.Fatalf("merge-path vs loser tree: %d vs %d records", len(got), len(tree))
		}
		if !bitsEqual(got, heap) {
			t.Fatalf("merge-path vs heap merger: %d vs %d records", len(got), len(heap))
		}
	})
}

func BenchmarkMergeAccumulateKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	uniform := randomSortedLists(rng, 64, 2000, 1<<20)
	// Skewed: one radix class dominates — a few long lists, many stubs.
	skewed := make([][]types.Record, 64)
	for i := range skewed {
		n := 20
		if i < 4 {
			n = 30000
		}
		skewed[i] = randomSortedLists(rng, 1, n, 1<<20)[0]
	}
	for _, tc := range []struct {
		name      string
		lists     [][]types.Record
		mergePath bool
	}{
		{"uniform/losertree", uniform, false},
		{"uniform/mergepath", uniform, true},
		{"skewed/losertree", skewed, false},
		{"skewed/mergepath", skewed, true},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var lt Workspace
			var mp MergePathWorkspace
			var dst []types.Record
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.mergePath {
					dst = mp.MergeAccumulateInto(dst, tc.lists)
				} else {
					dst = lt.MergeAccumulateInto(dst, tc.lists)
				}
			}
		})
	}
}

// TestMergePathWarmAllocFree holds the kernel's steady state to zero
// allocations: once sized has grown the arenas for a shape, further
// merges of that shape reuse them (DESIGN.md §12).
func TestMergePathWarmAllocFree(t *testing.T) {
	lists := randomSortedLists(rand.New(rand.NewSource(16)), 24, 400, 5000)
	var ws MergePathWorkspace
	dst := ws.MergeAccumulateInto(nil, lists)
	if allocs := testing.AllocsPerRun(10, func() {
		dst = ws.MergeAccumulateInto(dst, lists)
	}); allocs != 0 {
		t.Errorf("warmed MergeAccumulateInto allocates %.0f times per merge, want 0", allocs)
	}
}

// TestMergePathSingleArenaLevelParity covers both parities of the level
// count ⌈log₂ live⌉ — the first level's target (dst or bufA) depends on
// it so that the last level lands in dst. Every second entry of lists is
// empty, so the live runs are a compacted subset. Each shape runs on a
// fresh workspace and again warm, bitwise against the loser tree, and
// the one scratch arena never exceeds the record count (and stays
// unallocated when two runs merge straight into dst).
func TestMergePathSingleArenaLevelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, live := range []int{1, 2, 3, 4, 5, 8, 9} {
		lists := make([][]types.Record, 2*live+1)
		total := 0
		for i := 1; i < len(lists); i += 2 {
			l := randomSortedLists(rng, 1, 300, 40)[0]
			if len(l) == 0 {
				l = []types.Record{{Key: 7, Val: rng.Float64()}}
			}
			lists[i] = l
			total += len(l)
		}
		var lt Workspace
		want := lt.MergeAccumulateInto(nil, lists)
		var ws MergePathWorkspace
		var dst []types.Record
		for run := 0; run < 2; run++ {
			dst = ws.MergeAccumulateInto(dst, lists)
			if !bitsEqual(dst, want) {
				t.Fatalf("live=%d run %d: diverges from loser tree", live, run)
			}
		}
		if cap(ws.bufA) > total {
			t.Errorf("live=%d: bufA capacity %d exceeds %d records", live, cap(ws.bufA), total)
		}
		if live <= 2 && cap(ws.bufA) != 0 {
			t.Errorf("live=%d: bufA grown to %d, want untouched", live, cap(ws.bufA))
		}
	}
}
