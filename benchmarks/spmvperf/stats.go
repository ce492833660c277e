package main

import (
	"encoding/binary"
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4), which is what
// the driver applies to the per-run values. A single sample is its own
// quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle of v.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// FNV-1a parameters; the hashes below fold whole 64-bit words per step
// instead of bytes, which keeps hashing a 64 MB vector out of the run's
// time budget. They only ever compare two runs of this benchmark.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashFloats hashes the bit patterns of y, so two vectors hash equal
// only when they are bit-identical (-0.0 and NaN payloads included).
func hashFloats(y []float64) uint64 {
	h := uint64(fnvOffset)
	for _, v := range y {
		h = (h ^ math.Float64bits(v)) * fnvPrime
	}
	return h
}

// hashBytes hashes a raw response body.
func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * fnvPrime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeatUntil calls op until the deadline has passed, at least minReps
// times, and returns the milliseconds each call reports. op times its
// own measured section, so output checks inside op stay untimed while
// still counting against the deadline.
func repeatUntil(deadline time.Time, minReps int, op func(rep int) float64) []float64 {
	var samples []float64
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		samples = append(samples, op(rep))
	}
	return samples
}
