package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(5)
	for _, v := range []int{1, 1, 3, 4, 4} {
		h.Add(v)
	}
	if h.Total != 5 {
		t.Fatalf("Total = %d", h.Total)
	}
	if want := []uint64{0, 2, 0, 1, 2}; !slices.Equal(h.Counts, want) {
		t.Errorf("Counts = %v, want %v", h.Counts, want)
	}
	if h.Mode() != 1 {
		t.Errorf("Mode = %d", h.Mode())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(3)
	h.Add(-5)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[2] != 1 {
		t.Errorf("clamping failed: %v", h.Counts)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int{2, 2, 2, 4} {
		h.Add(v)
	}
	if got := h.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestBitWidth(t *testing.T) {
	type widthCase struct {
		v    uint64
		want int
	}
	cases := []widthCase{{0, 1}, {1, 1}, {255, 8}, {256, 9}, {math.MaxUint64, 64}}
	// 2^i needs i+1 bits and 2^i - 1 needs i, except that 2^0 - 1 = 0
	// still takes one; 2^i + 1 needs i+1, except that 2^0 + 1 = 2 takes two.
	for i := 0; i < 64; i++ {
		p := uint64(1) << i
		cases = append(cases, widthCase{p - 1, max(i, 1)}, widthCase{p, i + 1}, widthCase{p + 1, max(i+1, 2)})
	}
	for _, c := range cases {
		if got := BitWidth(c.v); got != c.want {
			t.Errorf("BitWidth(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBitWidthProperty(t *testing.T) {
	f := func(v uint64) bool {
		w := BitWidth(v)
		if v == 0 {
			return w == 1
		}
		// 2^(w-1) <= v < 2^w
		return v>>(uint(w)-1) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricGapWidthDistSums(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5, 0.9} {
		d := GeometricGapWidthDist(p, 40)
		sum := 0.0
		for _, v := range d {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("p=%g: distribution sums to %g", p, sum)
		}
	}
}

func TestGeometricGapWidthDistMatchesSampling(t *testing.T) {
	// Empirical gap widths from geometric sampling must match the
	// closed form.
	p := 0.05
	want := GeometricGapWidthDist(p, 20)
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram(21)
	const n = 200000
	for i := 0; i < n; i++ {
		// Sample geometric gap >= 1.
		g := 1 + int(math.Floor(math.Log(rng.Float64())/math.Log(1-p)))
		h.Add(BitWidth(uint64(g)))
	}
	for w := 1; w <= 12; w++ {
		got := float64(h.Counts[w]) / n
		if math.Abs(got-want[w]) > 0.01 {
			t.Errorf("width %d: sampled %g vs analytic %g", w, got, want[w])
		}
	}
}

func TestGeometricGapEdgeCases(t *testing.T) {
	if d := GeometricGapWidthDist(0, 10); d[1] != 0 {
		t.Error("p=0 should give empty distribution")
	}
	if d := GeometricGapWidthDist(1, 10); d[1] != 1 {
		t.Error("p=1 should put all mass at width 1")
	}
}
