package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the same arithmetic as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), so spreads printed here match the
// ones an outside checker computes. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs. Samples
// may be +Inf (an operation that never completed); the result is +Inf
// only when more than a (1-p) share of the samples are.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	i := int(math.Ceil(p*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}
