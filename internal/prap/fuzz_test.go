package prap

import (
	"sort"
	"testing"

	"mwmerge/internal/types"
)

// FuzzRouteLists feeds random record lists — including lists smuggling
// the reserved padding key — through the radix routing and asserts the
// sentinel contract: genuine sentinel-carrying records are rejected with
// an error, and accepted inputs route every record to its residue-class
// slot with no sentinel ever escaping into the slots, exactly as the
// bitonic pre-sorter oracle routes them.
func FuzzRouteLists(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 5, 9, 13, 2, 6})
	f.Add([]byte{3, 0xFF, 1, 2})                   // sentinel in list 0
	f.Add([]byte{1, 7, 7, 7, 0xFF})                // duplicates then sentinel
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) // full fan-out
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Q: 2, Ways: 4, FIFODepth: 2, DPage: 64, RecordBytes: types.RecordBytes}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := cfg.Cores()

		// Decode the corpus: byte 0 picks the list count, every later
		// byte becomes one record, 0xFF smuggling the reserved key.
		numLists := 1
		if len(data) > 0 {
			numLists = int(data[0])%cfg.Ways + 1
			data = data[1:]
		}
		lists := make([][]types.Record, numLists)
		sentinelIn := false
		for i, b := range data {
			key := uint64(b)
			if b == 0xFF {
				key = invalidKey
				sentinelIn = true
			}
			li := i % numLists
			lists[li] = append(lists[li], types.Record{Key: key, Val: float64(b) + 0.5})
		}
		// routeLists expects each list key-sorted, as produced by step 1.
		for _, l := range lists {
			sort.SliceStable(l, func(i, j int) bool { return l[i].Key < l[j].Key })
		}

		st := Stats{PerCoreInput: make([]uint64, p), PerCoreOutput: make([]uint64, p)}
		slots, err := n.routeLists(lists, &st, &mergeScratch{})

		if sentinelIn {
			if err == nil {
				t.Fatal("sentinel-carrying input accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("clean input rejected: %v", err)
		}

		var routed, want uint64
		for _, l := range lists {
			want += uint64(len(l))
		}
		if len(slots) != p {
			t.Fatalf("got %d radix classes, want %d", len(slots), p)
		}
		for r := range slots {
			if len(slots[r]) != numLists {
				t.Fatalf("radix %d: %d list slots, want %d", r, len(slots[r]), numLists)
			}
			for li, slot := range slots[r] {
				for i, rec := range slot {
					if rec.Key == invalidKey {
						t.Fatalf("padding sentinel escaped into slot[%d][%d]", r, li)
					}
					if int(rec.Key)%p != r {
						t.Fatalf("record key %d routed to radix %d", rec.Key, r)
					}
					if i > 0 && slot[i-1].Key > rec.Key {
						t.Fatalf("slot[%d][%d] unsorted: %d after %d", r, li, rec.Key, slot[i-1].Key)
					}
					routed++
				}
			}
		}
		if routed != want {
			t.Fatalf("routed %d records, want %d", routed, want)
		}
		var perCore uint64
		for _, c := range st.PerCoreInput {
			perCore += c
		}
		if perCore != want {
			t.Fatalf("PerCoreInput sums to %d, want %d", perCore, want)
		}
		// Record for record, the scatter must route as the hardware
		// pre-sorter does.
		checkRouteMatchesPreSorter(t, n, &mergeScratch{}, lists)
	})
}
