// Package stats provides the small statistical toolkit used by the
// evaluation harness: histograms of delta-index widths (paper Fig. 13),
// degree distributions, and closed-form gap math for Erdős–Rényi graphs.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a fixed-bin integer histogram over [0, Bins).
type Histogram struct {
	Counts []uint64
	Total  uint64
}

// NewHistogram returns a histogram with bins [0, bins).
func NewHistogram(bins int) *Histogram {
	return &Histogram{Counts: make([]uint64, bins)}
}

// Add records one observation of value v; values beyond the last bin are
// clamped into it.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Counts) {
		v = len(h.Counts) - 1
	}
	h.Counts[v]++
	h.Total++
}

// AddN records n observations of value v.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Counts) {
		v = len(h.Counts) - 1
	}
	h.Counts[v] += n
	h.Total += n
}

// P returns the empirical probability of bin v.
func (h *Histogram) P(v int) float64 {
	if h.Total == 0 || v < 0 || v >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[v]) / float64(h.Total)
}

// Probabilities returns the normalized distribution across all bins.
func (h *Histogram) Probabilities() []float64 {
	p := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return p
	}
	for i, c := range h.Counts {
		p[i] = float64(c) / float64(h.Total)
	}
	return p
}

// Mean returns the mean bin index.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	var s float64
	for i, c := range h.Counts {
		s += float64(i) * float64(c)
	}
	return s / float64(h.Total)
}

// Mode returns the bin with the highest count.
func (h *Histogram) Mode() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}

func (h *Histogram) String() string {
	return fmt.Sprintf("hist{total=%d bins=%d mode=%d}", h.Total, len(h.Counts), h.Mode())
}

// BitWidth returns the number of bits needed to represent v
// (BitWidth(0) == 1, matching a delta of zero distance still occupying one
// bit in a delta-index stream).
func BitWidth(v uint64) int {
	return max(bits.Len64(v), 1)
}

// GeometricGapWidthDist returns the probability distribution of the
// bit-width of gaps between consecutive nonzeros when nonzeros occur
// independently with density p (Erdős–Rényi stripes): the gap G is
// geometric with parameter p, and the returned slice d[w] is
// P(BitWidth(G) == w) for w in [1, maxW].
func GeometricGapWidthDist(p float64, maxW int) []float64 {
	d := make([]float64, maxW+1)
	if p <= 0 || p >= 1 {
		if p >= 1 {
			d[1] = 1 // every position occupied: gap 1, width 1
		}
		return d
	}
	// P(G = g) = (1-p)^{g-1} p for g >= 1.
	// P(width = w) = P(2^{w-1} <= G < 2^w) = Q(2^{w-1}) - Q(2^w)
	// where Q(g) = P(G >= g) = (1-p)^{g-1}.
	q := func(g float64) float64 { return math.Pow(1-p, g-1) }
	for w := 1; w <= maxW; w++ {
		lo := math.Pow(2, float64(w-1))
		hi := math.Pow(2, float64(w))
		pw := q(lo) - q(hi)
		if w == maxW {
			pw = q(lo) // clamp tail into last bin
		}
		if pw < 0 {
			pw = 0
		}
		d[w] = pw
	}
	return d
}

// Quantile returns the q-quantile (0..1) of the sorted copy of xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of positive xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
