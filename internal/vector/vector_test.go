package vector

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mwmerge/internal/types"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(4)
	if d.NNZ() != 0 {
		t.Fatalf("fresh dense vector has %d nonzeros", d.NNZ())
	}
	d.Fill(2)
	if d.NNZ() != 4 || d.Norm1() != 8 {
		t.Fatalf("after Fill: nnz=%d norm=%g", d.NNZ(), d.Norm1())
	}
	d.Scale(-0.5)
	if d[0] != -1 || d.Norm1() != 4 {
		t.Fatalf("after Scale: %v", d)
	}
	d.Zero()
	if d.NNZ() != 0 {
		t.Fatalf("after Zero: %v", d)
	}
}

func TestDenseCloneIndependent(t *testing.T) {
	a := Dense{1, 2}
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing storage")
	}
}

// TestMaxAbsDiffNonFinite pins MaxAbsDiff on NaN and infinities: a NaN
// on one side only is an infinite difference, while equal values (equal
// infinities included) and a NaN on both sides differ by nothing.
func TestMaxAbsDiffNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		a, b Dense
		want float64
	}{
		{"NaN vs 1", Dense{nan}, Dense{1}, inf},
		{"1 vs NaN", Dense{1}, Dense{nan}, inf},
		{"NaN vs NaN", Dense{nan}, Dense{nan}, 0},
		{"NaN vs Inf", Dense{nan}, Dense{inf}, inf},
		{"Inf vs Inf", Dense{inf}, Dense{inf}, 0},
		{"-Inf vs -Inf", Dense{-inf}, Dense{-inf}, 0},
		{"Inf vs -Inf", Dense{inf}, Dense{-inf}, inf},
		{"Inf vs 1", Dense{inf}, Dense{1}, inf},
		{"NaN beside a finite gap", Dense{nan, 1}, Dense{2, 4}, inf},
		{"NaN in both beside a finite gap", Dense{nan, 1}, Dense{nan, 4}, 3},
		{"NaN vs a missing element", Dense{1, nan}, Dense{1}, inf},
		{"-0 vs +0", Dense{math.Copysign(0, -1)}, Dense{0}, 0},
	}
	for _, c := range cases {
		if got := c.a.MaxAbsDiff(c.b); got != c.want {
			t.Errorf("%s: MaxAbsDiff = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestMaxAbsDiffMismatchedLengths(t *testing.T) {
	a := Dense{1, 2, 3}
	b := Dense{1, 2}
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Errorf("MaxAbsDiff with missing element = %g, want 3", got)
	}
}

func TestSparseAppendOrdering(t *testing.T) {
	s := NewSparse(10, 0)
	if err := s.Append(types.Record{Key: 3, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(types.Record{Key: 3, Val: 2}); err == nil {
		t.Error("duplicate key accepted by Append")
	}
	if err := s.Append(types.Record{Key: 2, Val: 2}); err == nil {
		t.Error("descending key accepted by Append")
	}
	if err := s.Append(types.Record{Key: 10, Val: 1}); err == nil {
		t.Error("out-of-dimension key accepted")
	}
	if err := s.Append(types.Record{Key: 7, Val: 2}); err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 {
		t.Errorf("NNZ = %d", s.NNZ())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSparseAccumulateAdderChain(t *testing.T) {
	// Consecutive same-key accumulations merge (adder-chain semantics).
	s := NewSparse(10, 0)
	for _, v := range []float64{1, 2, 3} {
		if err := s.Accumulate(4, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Accumulate(5, 10); err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 || s.Recs[0].Val != 6 {
		t.Errorf("accumulate result: %v", s.Recs)
	}
	// Non-consecutive duplicate must fail: step 1 guarantees row-major.
	if err := s.Accumulate(4, 1); err == nil {
		t.Error("non-consecutive duplicate accepted")
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	d := Dense{0, 1.5, 0, -2, 0, 3}
	s := FromDense(d)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	back := s.ToDense()
	if back.MaxAbsDiff(d) != 0 {
		t.Errorf("round trip: %v != %v", back, d)
	}
}

func TestFromDenseProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		d := Dense(vals)
		s := FromDense(d)
		if s.Validate() != nil {
			return false
		}
		return s.ToDense().MaxAbsDiff(d) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortRecordsStable(t *testing.T) {
	recs := []types.Record{
		{Key: 2, Val: 1}, {Key: 1, Val: 1}, {Key: 2, Val: 2}, {Key: 1, Val: 2},
	}
	SortRecords(recs)
	want := []types.Record{{Key: 1, Val: 1}, {Key: 1, Val: 2}, {Key: 2, Val: 1}, {Key: 2, Val: 2}}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("stable sort: got %v", recs)
		}
	}
}

func TestSortRecordsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]types.Record, 500)
	for i := range recs {
		recs[i] = types.Record{Key: rng.Uint64() % 100, Val: float64(i)}
	}
	SortRecords(recs)
	if !sort.SliceIsSorted(recs, func(i, j int) bool {
		if recs[i].Key != recs[j].Key {
			return recs[i].Key < recs[j].Key
		}
		return recs[i].Val < recs[j].Val
	}) {
		t.Error("SortRecords result not stably sorted")
	}
}
