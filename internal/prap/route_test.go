package prap

import (
	"math"
	"math/rand"
	"testing"

	"mwmerge/internal/bitonic"
	"mwmerge/internal/types"
)

// presortRoute is the hardware router the host scatter replaces, kept
// as the oracle: every list is streamed in p-record batches, the final
// batch padded with the reserved key, each batch pre-sorted stably on
// its q low key bits by the bitonic network, and the non-padding
// outputs appended to their (radix, list) slot in network order.
func presortRoute(t testing.TB, q uint, lists [][]types.Record) (slots [][][]types.Record, perCore []uint64, batches uint64) {
	t.Helper()
	p := 1 << q
	ps, err := bitonic.NewPreSorter(p, q)
	if err != nil {
		t.Fatal(err)
	}
	slots = make([][][]types.Record, p)
	for r := range slots {
		slots[r] = make([][]types.Record, len(lists))
	}
	perCore = make([]uint64, p)
	batch := make([]types.Record, p)
	for li, list := range lists {
		for off := 0; off < len(list); off += p {
			m := copy(batch, list[off:])
			for i := m; i < p; i++ {
				batch[i] = types.Record{Key: invalidKey}
			}
			if err := ps.Sort(batch); err != nil {
				t.Fatal(err)
			}
			batches++
			for _, rec := range batch {
				if rec.Key == invalidKey {
					continue
				}
				r := rec.Radix(q)
				slots[r][li] = append(slots[r][li], rec)
				perCore[r]++
			}
		}
	}
	return slots, perCore, batches
}

// checkRouteMatchesPreSorter routes lists through n's counting scatter
// on scr and fails unless every slot, the per-core input counts and the
// batch count equal the pre-sorter oracle's, record for record and bit
// for bit.
func checkRouteMatchesPreSorter(t testing.TB, n *Network, scr *mergeScratch, lists [][]types.Record) {
	t.Helper()
	p := n.cfg.Cores()
	st := Stats{PerCoreInput: make([]uint64, p), PerCoreOutput: make([]uint64, p)}
	got, err := n.routeLists(lists, &st, scr)
	if err != nil {
		t.Fatalf("q=%d: %v", n.cfg.Q, err)
	}
	want, wantPerCore, wantBatches := presortRoute(t, n.cfg.Q, lists)
	if len(got) != p {
		t.Fatalf("q=%d: %d radix classes, want %d", n.cfg.Q, len(got), p)
	}
	for r := range want {
		if len(got[r]) != len(lists) {
			t.Fatalf("q=%d radix %d: %d list slots, want %d", n.cfg.Q, r, len(got[r]), len(lists))
		}
		for li := range want[r] {
			g, w := got[r][li], want[r][li]
			if len(g) != len(w) {
				t.Fatalf("q=%d slot[%d][%d]: %d records, want %d", n.cfg.Q, r, li, len(g), len(w))
			}
			for i := range w {
				if g[i].Key != w[i].Key || math.Float64bits(g[i].Val) != math.Float64bits(w[i].Val) {
					t.Fatalf("q=%d slot[%d][%d][%d] = %+v, want %+v", n.cfg.Q, r, li, i, g[i], w[i])
				}
			}
		}
	}
	for r, c := range wantPerCore {
		if st.PerCoreInput[r] != c {
			t.Fatalf("q=%d: PerCoreInput = %v, want %v", n.cfg.Q, st.PerCoreInput, wantPerCore)
		}
	}
	if st.PresortBatches != wantBatches {
		t.Fatalf("q=%d: PresortBatches = %d, want %d", n.cfg.Q, st.PresortBatches, wantBatches)
	}
}

// TestRouteMatchesPreSorter pins the host counting scatter to the
// hardware pre-sorter it replaces: the same slots in the same order,
// the same per-core loads and the same batch count, across radix widths
// (p = 1 … 64) and worker counts, on empty lists, lengths that are not
// a multiple of p, and runs of duplicate keys. One scratch serves every
// trial of a configuration, so arena recycling across shapes is covered
// too.
func TestRouteMatchesPreSorter(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, q := range []uint{0, 1, 2, 4, 6} {
		for _, workers := range []int{1, 3} {
			cfg := smallConfig(q, 16)
			cfg.MergeWorkers = workers
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := cfg.Cores()
			var scr mergeScratch
			checkRouteMatchesPreSorter(t, n, &scr, nil)
			checkRouteMatchesPreSorter(t, n, &scr, [][]types.Record{nil, {}, nil})
			for trial := 0; trial < 12; trial++ {
				lists := make([][]types.Record, rng.Intn(cfg.Ways+1))
				for li := range lists {
					if rng.Intn(4) == 0 {
						continue // empty list
					}
					list := make([]types.Record, rng.Intn(3*p+2))
					key := uint64(rng.Intn(5))
					for i := range list {
						key += uint64(rng.Intn(3)) // 0 repeats the key
						list[i] = types.Record{Key: key, Val: rng.NormFloat64()}
					}
					lists[li] = list
				}
				checkRouteMatchesPreSorter(t, n, &scr, lists)
			}
		}
	}
}
