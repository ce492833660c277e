package stats

import (
	"math"
	"testing"
)

func TestHillEstimatorRecoversParetoTail(t *testing.T) {
	// Sample a discrete Pareto tail with alpha = 2.5 via inverse CDF.
	alpha := 2.5
	degs := make([]uint64, 50000)
	u := 0.5 / float64(len(degs))
	for i := range degs {
		x := math.Pow(1-(float64(i)+0.5)/float64(len(degs)), -1/(alpha-1))
		degs[i] = uint64(x)
		_ = u
	}
	got := HillEstimator(degs, 2000)
	if math.Abs(got-alpha) > 0.5 {
		t.Errorf("Hill estimate %.2f, want ~%.1f", got, alpha)
	}
}

func TestHillEstimatorLightTail(t *testing.T) {
	// A constant-degree sequence has no heavy tail: alpha explodes.
	degs := make([]uint64, 1000)
	for i := range degs {
		degs[i] = 3
	}
	got := HillEstimator(degs, 100)
	if !math.IsInf(got, 1) && got < 10 {
		t.Errorf("constant degrees estimated alpha %.2f, want huge", got)
	}
}

func TestHillEstimatorDegenerate(t *testing.T) {
	if !math.IsNaN(HillEstimator(nil, 10)) {
		t.Error("empty sequence should give NaN")
	}
	if !math.IsNaN(HillEstimator([]uint64{0, 0}, 10)) {
		t.Error("all-zero sequence should give NaN")
	}
}
