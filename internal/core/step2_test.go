package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mwmerge/internal/graph"
	"mwmerge/internal/prap"
	"mwmerge/internal/types"
	"mwmerge/internal/vector"
)

// step2Case is one accumulator-vs-network comparison: K sorted lists
// over dim keys, blocks of width keys, MergeWorkers workers, an optional
// yIn, and segment publishing on or off.
type step2Case struct {
	lists   [][]types.Record
	dim     uint64
	width   uint64
	q       uint
	workers int
	yIn     vector.Dense
	publish bool
}

// step2Ways is the Ways of every comparison, so a case may hold up to 8
// lists.
const step2Ways = 8

// specialValues are the values whose bits a re-associated, skipped or
// reordered add would change. Which of two different NaNs an add keeps
// depends on the operand order the compiler picks for the machine add,
// which Go leaves open (the network's own two merge kernels disagree on
// it), so no step 2 can promise it: the only NaN among the values is
// the one ∞ − ∞ yields, and step2YIn puts its signaling NaN only where
// no value is NaN or infinite.
var specialValues = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), hardwareNaN(math.Inf(1)),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), // largest denormal
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1,
}

// hardwareNaN returns the NaN this machine's invalid operations yield.
func hardwareNaN(inf float64) float64 { return inf - inf }

// signalingNaN is math.NaN() with the quiet bit clear: an add quiets
// it, so it marks whether a key saw the network's injected add.
var signalingNaN = math.Float64frombits(math.Float64bits(math.NaN()) &^ (1 << 51))

// randomStep2Lists draws k lists over dim keys from rng: each list empty
// with probability 1/5, keys ascending with duplicates inside a list and
// across lists, key dim−1 in the last non-empty list, and values drawn
// from specialValues one time in four when special is set.
func randomStep2Lists(rng *rand.Rand, k int, dim uint64, special bool) [][]types.Record {
	lists := make([][]types.Record, k)
	last := -1
	for j := range lists {
		if rng.Intn(5) == 0 {
			continue
		}
		n := rng.Intn(int(dim)*2 + 1)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Int63n(int64(dim)))
		}
		slices.Sort(keys)
		l := make([]types.Record, n)
		for i, key := range keys {
			v := rng.NormFloat64()
			if special && rng.Intn(4) == 0 {
				v = specialValues[rng.Intn(len(specialValues))]
			}
			l[i] = types.Record{Key: key, Val: v}
		}
		lists[j] = l
		if n > 0 {
			last = j
		}
	}
	if last >= 0 {
		lists[last][len(lists[last])-1].Key = dim - 1
	}
	return lists
}

// step2YIn builds a yIn for the lists by mode: 0 none, 1 random values
// with −0.0 on every key no list holds, 2 random values with a
// signaling NaN on every third key whose values are all finite.
func step2YIn(rng *rand.Rand, lists [][]types.Record, dim uint64, mode int) vector.Dense {
	if mode == 0 {
		return nil
	}
	held := make([]bool, dim)
	nonFinite := make([]bool, dim)
	for _, l := range lists {
		for _, r := range l {
			held[r.Key] = true
			if math.IsNaN(r.Val) || math.IsInf(r.Val, 0) {
				nonFinite[r.Key] = true
			}
		}
	}
	y := vector.NewDense(int(dim))
	for i := range y {
		y[i] = rng.NormFloat64()
		switch {
		case mode == 1 && !held[i]:
			y[i] = math.Copysign(0, -1)
		case mode == 2 && i%3 == 0 && !nonFinite[i]:
			y[i] = signalingNaN
		}
	}
	return y
}

// checkStep2 runs c through prap.Network.MergeInto and through the
// engine's step 2 and requires equal output bits and equal statistics;
// with publishing, every segment must be published once, in ascending
// order, with its elements already final.
func checkStep2(t *testing.T, c step2Case) {
	t.Helper()
	pcfg := prap.Config{Q: c.q, Ways: step2Ways, FIFODepth: 4, DPage: 256, RecordBytes: 16, MergeWorkers: 1}
	net, err := prap.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	want := vector.NewDense(int(c.dim))
	wantSt, err := net.MergeInto(c.lists, c.dim, c.yIn, want, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.ScratchpadBytes = c.width * uint64(cfg.ValueBytes)
	cfg.Merge = pcfg
	cfg.Merge.MergeWorkers = c.workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := vector.NewDense(int(c.dim))
	for i := range got {
		got[i] = math.NaN() // step 2 must overwrite every element
	}
	var publish func(int)
	var pubs []int
	if c.publish {
		publish = func(seg int) {
			pubs = append(pubs, seg)
			lo := uint64(seg) * c.width
			hi := min(lo+c.width, c.dim)
			for k := lo; k < hi; k++ {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Errorf("segment %d published before y[%d] was final", seg, k)
					return
				}
			}
		}
	}
	cover := e.listCover(c.lists, c.dim)
	e.runStep2Into(c.lists, cover, c.dim, c.yIn, got, blockFinish{publish: publish})

	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("y[%d] = %#x (%g), MergeInto %#x (%g)", k,
				math.Float64bits(got[k]), got[k], math.Float64bits(want[k]), want[k])
		}
	}
	if !reflect.DeepEqual(cover.stats, wantSt) {
		t.Fatalf("stats %+v, MergeInto %+v", cover.stats, wantSt)
	}
	if st := e.Stats(); st.MergeInjected != wantSt.Injected || st.MergeEmitted != wantSt.Emitted ||
		st.MergePresortBatches != wantSt.PresortBatches {
		t.Fatalf("booked merge counters %d/%d/%d, MergeInto %+v",
			st.MergeInjected, st.MergeEmitted, st.MergePresortBatches, wantSt)
	}
	if c.publish {
		segs := int((c.dim + c.width - 1) / c.width)
		if len(pubs) != segs {
			t.Fatalf("%d publishes for %d segments: %v", len(pubs), segs, pubs)
		}
		for i, s := range pubs {
			if s != i {
				t.Fatalf("publish order %v, want 0…%d ascending", pubs, segs-1)
			}
		}
	}
}

// TestStep2MatchesMergeInto holds the engine's step 2 to the PRaP
// network it replaces on the host: output bits and prap.Stats, over
// empty lists, duplicate keys, key dim−1, dimensions below and off the
// block width, 1 and Ways lists, −0.0/±Inf/NaN/denormal values, the
// three yIn kinds, MergeWorkers 1–3, and segment publishing.
func TestStep2MatchesMergeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, dim := range []uint64{1, 5, 16, 37, 100} {
		for _, k := range []int{0, 1, 3, step2Ways} {
			for yMode := 0; yMode < 3; yMode++ {
				for workers := 1; workers <= 3; workers++ {
					for _, publish := range []bool{false, true} {
						lists := randomStep2Lists(rng, k, dim, true)
						c := step2Case{
							lists: lists, dim: dim, width: 16, q: uint(workers - 1),
							workers: workers, yIn: step2YIn(rng, lists, dim, yMode), publish: publish,
						}
						t.Run(fmt.Sprintf("dim%d/k%d/y%d/w%d/pub%v", dim, k, yMode, workers, publish), func(t *testing.T) {
							checkStep2(t, c)
						})
					}
				}
			}
		}
	}
	t.Run("lists-sum-to-negzero", func(t *testing.T) {
		nz := math.Copysign(0, -1)
		lists := [][]types.Record{
			{{Key: 0, Val: nz}, {Key: 1, Val: nz}, {Key: 2, Val: 1}},
			{{Key: 0, Val: nz}, {Key: 2, Val: -1}, {Key: 3, Val: signalingNaN}},
		}
		yIn := vector.Dense{nz, 1, nz, 2, nz}
		for _, y := range []vector.Dense{nil, yIn} {
			checkStep2(t, step2Case{lists: lists, dim: 5, width: 2, q: 1, workers: 2, yIn: y})
		}
	})
	// The plan's cover: for a dense x, the statistics and held keys of
	// the stripes' run rows equal those of the lists step 1 emits.
	t.Run("plan-cover", func(t *testing.T) {
		a, err := graph.Zipf(300, 3, 1.8, 5)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.planFor(a)
		if err != nil {
			t.Fatal(err)
		}
		bank := e.nextBank()
		e.step1Compute(p, []vector.Dense{randomX(a.Cols, 6)}, nil, bank)
		lists := bank.lists[:len(p.stripes)]
		c := e.listCover(lists, a.Rows)
		if !reflect.DeepEqual(p.cover, *c) {
			t.Fatalf("plan cover %+v, list cover %+v", p.cover.stats, c.stats)
		}
		if p.cover.stats.Injected == 0 {
			t.Fatal("want a matrix with empty rows")
		}
	})
}

// FuzzStep2MatchesMergeInto is TestStep2MatchesMergeInto over fuzzed
// list shapes, dimensions, block widths, worker counts, yIn kinds and
// publishing.
func FuzzStep2MatchesMergeInto(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3), uint8(16), uint8(2), uint8(0))
	f.Add(int64(2), uint16(1), uint8(1), uint8(1), uint8(1), uint8(5))
	f.Add(int64(3), uint16(257), uint8(8), uint8(7), uint8(3), uint8(14))
	f.Add(int64(4), uint16(64), uint8(0), uint8(64), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, dimRaw uint16, nLists, widthRaw, workers, mode uint8) {
		dim := uint64(dimRaw)%1024 + 1
		rng := rand.New(rand.NewSource(seed))
		lists := randomStep2Lists(rng, int(nLists)%(step2Ways+1), dim, mode&1 != 0)
		checkStep2(t, step2Case{
			lists:   lists,
			dim:     dim,
			width:   uint64(widthRaw)%64 + 1,
			q:       uint(workers % 4),
			workers: int(workers % 4),
			yIn:     step2YIn(rng, lists, dim, int(mode>>1)%3),
			publish: mode&8 != 0,
		})
	})
}
