package prap

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mwmerge/internal/vector"
)

// FuzzDrainModes cross-checks the sparse drain against the dense walk
// bit-for-bit, with segment publishing enabled, over fuzzed list shapes,
// dimensions, worker counts, and y inputs — including y inputs seeded
// with -0.0, which must force both modes onto the dense walk and still
// agree. Values are compared by Float64bits: any reassociation, skipped
// zero-add, or publish-ordering bug shows up as a bit flip.
func FuzzDrainModes(f *testing.F) {
	f.Add(int64(1), uint16(257), uint8(3), uint8(20), uint8(0), false)
	f.Add(int64(2), uint16(64), uint8(1), uint8(0), uint8(1), false)  // empty lists, yIn
	f.Add(int64(3), uint16(1000), uint8(6), uint8(5), uint8(2), true) // -0.0 in yIn, parallel
	f.Add(int64(4), uint16(31), uint8(4), uint8(80), uint8(4), false) // dense output
	f.Add(int64(5), uint16(512), uint8(2), uint8(1), uint8(0), true)  // hypersparse, dirty yIn
	f.Fuzz(func(t *testing.T, seed int64, dimRaw uint16, nLists, densityPct, workers uint8, negZero bool) {
		dim := uint64(dimRaw)%2048 + 1
		rng := rand.New(rand.NewSource(seed))
		lists := randomLists(rng, int(nLists)%8+1, dim, float64(densityPct%101)/100)
		var yIn vector.Dense
		if negZero || seed%2 == 0 {
			yIn = vector.NewDense(int(dim))
			for i := range yIn {
				yIn[i] = rng.NormFloat64()
			}
			if negZero {
				yIn[rng.Intn(int(dim))] = math.Copysign(0, -1)
			}
		}
		segWidth := dim/7 + 1

		run := func(mode DrainMode) (vector.Dense, Stats, []int) {
			cfg := smallConfig(2, 16)
			cfg.Drain = mode
			cfg.MergeWorkers = int(workers % 5)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out := vector.NewDense(int(dim))
			var mu sync.Mutex
			var pubs []int
			st, err := n.MergeInto(lists, dim, yIn, out, segWidth, func(seg int) {
				mu.Lock()
				pubs = append(pubs, seg)
				mu.Unlock()
			})
			if err != nil {
				t.Fatalf("MergeInto(drain=%s): %v", mode, err)
			}
			return out, st, pubs
		}

		want, wantStats, wantPubs := run(DrainDense)
		got, st, pubs := run(DrainSparse)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("out[%d]: dense %x, sparse %x (dim=%d negZero=%v)",
					i, math.Float64bits(want[i]), math.Float64bits(got[i]), dim, negZero)
			}
		}
		if !reflect.DeepEqual(wantStats, st) {
			t.Fatalf("stats diverge: dense %+v, sparse %+v", wantStats, st)
		}
		segs := int((dim + segWidth - 1) / segWidth)
		for label, p := range map[string][]int{"dense": wantPubs, "sparse": pubs} {
			if len(p) != segs {
				t.Fatalf("%s: %d publishes, want %d", label, len(p), segs)
			}
			for i, s := range p {
				if s != i {
					t.Fatalf("%s: publish order %v not ascending", label, p)
				}
			}
		}
		// The -0.0 must flip to +0.0 wherever no record landed on it —
		// the dense-walk semantics both modes must share.
		if negZero {
			covered := map[uint64]bool{}
			for _, l := range lists {
				for _, r := range l {
					covered[r.Key] = true
				}
			}
			for i := range got {
				if !covered[uint64(i)] && yIn[i] == 0 && math.Signbit(yIn[i]) && math.Signbit(got[i]) {
					t.Fatalf("out[%d] kept -0.0 through an injected key", i)
				}
			}
		}
	})
}
