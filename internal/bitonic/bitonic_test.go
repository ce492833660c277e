package bitonic

import (
	"math/rand"
	"sort"
	"testing"

	"mwmerge/internal/types"
)

func TestNewNetworkRejectsNonPowerOfTwo(t *testing.T) {
	for _, w := range []int{0, 3, 6, 100, -4} {
		if _, err := NewNetwork(w); err == nil {
			t.Errorf("width %d accepted", w)
		}
	}
}

func TestNetworkDepthAndComparators(t *testing.T) {
	// Bitonic network of width 2^k has k(k+1)/2 stages and
	// (w/2)·k(k+1)/2 comparators.
	cases := []struct {
		w, depth, comps int
	}{
		{2, 1, 1},
		{4, 3, 6},
		{8, 6, 24},
		{16, 10, 80},
	}
	for _, c := range cases {
		n, err := NewNetwork(c.w)
		if err != nil {
			t.Fatal(err)
		}
		if n.Depth() != c.depth {
			t.Errorf("width %d: depth %d, want %d", c.w, n.Depth(), c.depth)
		}
		if n.Comparators() != c.comps {
			t.Errorf("width %d: %d comparators, want %d", c.w, n.Comparators(), c.comps)
		}
	}
}

func TestPreSorterStability(t *testing.T) {
	// Records with the same radix must keep their arrival order — the
	// §4.2.1 requirement that keeps each MC input sorted.
	ps, err := NewPreSorter(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := []types.Record{
		{Key: 12, Val: 0}, // radix 0
		{Key: 5, Val: 1},  // radix 1
		{Key: 8, Val: 2},  // radix 0
		{Key: 13, Val: 3}, // radix 1
		{Key: 4, Val: 4},  // radix 0
		{Key: 7, Val: 5},  // radix 3
		{Key: 0, Val: 6},  // radix 0
		{Key: 2, Val: 7},  // radix 2
	}
	if err := ps.Sort(batch); err != nil {
		t.Fatal(err)
	}
	// Expect radix groups 0,1,2,3 in order; within radix 0 arrival order
	// 12, 8, 4, 0 (by Val: 0, 2, 4, 6).
	wantVals := []float64{0, 2, 4, 6, 1, 3, 7, 5}
	for i, r := range batch {
		if r.Val != wantVals[i] {
			t.Fatalf("lane %d: got val %g, want %g (batch %v)", i, r.Val, wantVals[i], batch)
		}
	}
}

func TestPreSorterStabilityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const w = 16
	ps, err := NewPreSorter(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		batch := make([]types.Record, w)
		for i := range batch {
			batch[i] = types.Record{Key: rng.Uint64() % 64, Val: float64(i)}
		}
		orig := append([]types.Record(nil), batch...)
		if err := ps.Sort(batch); err != nil {
			t.Fatal(err)
		}
		// Compare against a stable software sort on radix.
		want := append([]types.Record(nil), orig...)
		sort.SliceStable(want, func(i, j int) bool {
			return want[i].Radix(3) < want[j].Radix(3)
		})
		for i := range want {
			if batch[i] != want[i] {
				t.Fatalf("trial %d lane %d: got %v, want %v", trial, i, batch[i], want[i])
			}
		}
	}
}

func TestPreSorterComparatorBits(t *testing.T) {
	ps, _ := NewPreSorter(16, 4)
	// q=4 radix bits + log2(16)=4 lane bits = 8-bit comparators,
	// far below a 64-bit full-key comparator.
	if got := ps.ComparatorBits(); got != 8 {
		t.Errorf("ComparatorBits = %d, want 8", got)
	}
	if ps.Width() != 16 || ps.Depth() != 10 {
		t.Errorf("width/depth = %d/%d", ps.Width(), ps.Depth())
	}
}

func TestPreSorterRejectsHugeRadix(t *testing.T) {
	if _, err := NewPreSorter(8, 33); err == nil {
		t.Error("radix width 33 accepted")
	}
}

func TestZeroOnePrinciple(t *testing.T) {
	// Knuth's 0-1 principle: a comparison network sorts all inputs iff
	// it sorts every 0-1 input. Exhaustively route every 0-1 radix
	// pattern through the pre-sorter at width 8 (256 cases) and width 16
	// (65536 cases): zeros first, ones last, each in arrival order.
	for _, w := range []int{8, 16} {
		ps, err := NewPreSorter(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf SortBuf
		batch := make([]types.Record, w)
		for mask := 0; mask < 1<<w; mask++ {
			ones := 0
			for i := range batch {
				batch[i] = types.Record{Key: uint64(mask>>i) & 1, Val: float64(i)}
				ones += int(batch[i].Key)
			}
			if err := ps.SortWith(&buf, batch); err != nil {
				t.Fatal(err)
			}
			for i, r := range batch {
				if r.Key != 0 && i < w-ones || r.Key != 1 && i >= w-ones {
					t.Fatalf("width %d mask %b: not zeros then ones: %v", w, mask, batch)
				}
				if i > 0 && r.Key == batch[i-1].Key && r.Val < batch[i-1].Val {
					t.Fatalf("width %d mask %b: arrival order lost: %v", w, mask, batch)
				}
			}
		}
	}
}
