package stats

import (
	"math"
	"sort"
)

// HillEstimator returns the power-law tail exponent alpha of a degree
// sequence using the Hill maximum-likelihood estimator over the top-k
// order statistics: alpha = 1 + k / Σ ln(x_i / x_min). Zipf-generated
// graphs should recover their construction exponent; light-tailed graphs
// return large alpha.
func HillEstimator(degrees []uint64, k int) float64 {
	var pos []float64
	for _, d := range degrees {
		if d > 0 {
			pos = append(pos, float64(d))
		}
	}
	if len(pos) < 2 {
		return math.NaN()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(pos)))
	if k < 2 {
		k = 2
	}
	if k >= len(pos) {
		k = len(pos) - 1
	}
	xmin := pos[k]
	if xmin <= 0 {
		return math.NaN()
	}
	var s float64
	for i := 0; i < k; i++ {
		s += math.Log(pos[i] / xmin)
	}
	if s == 0 {
		return math.Inf(1)
	}
	return 1 + float64(k)/s
}
