// Package stats implements the statistical machinery used throughout the
// Astra memory-failure analysis: descriptive summaries, histograms,
// empirical CDFs, ordinary-least-squares fits, discrete power-law fitting
// (Clauset-Shalizi-Newman style MLE with a Kolmogorov-Smirnov distance),
// decile binning, chi-square uniformity tests, rank and linear correlation,
// and bootstrap confidence intervals.
//
// The package is stdlib-only and deterministic given a seed, which the
// reproduction harness relies on.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
	Q1, Q3   float64 // first and third quartiles
}

// Summarize computes descriptive statistics. It returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median, _ = Quantile(sorted, 0.5)
	s.Q1, _ = Quantile(sorted, 0.25)
	s.Q3, _ = Quantile(sorted, 0.75)
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation between order statistics. An empty
// sample — reachable from degraded external data — returns (0, false)
// rather than panicking; a detectably unsorted input (first > last) is a
// programming error and still panics.
func Quantile(sorted []float64, q float64) (float64, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	if sorted[0] > sorted[len(sorted)-1] {
		panic("stats: Quantile requires ascending-sorted input")
	}
	if q <= 0 {
		return sorted[0], true
	}
	if q >= 1 {
		return sorted[len(sorted)-1], true
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], true
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, true
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the sample median, or 0 for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m, _ := Quantile(sorted, 0.5)
	return m
}

// TopShare sorts the sample descending and returns the fraction of the
// total sum contributed by the k largest values. This implements the
// paper's "the 8 nodes with the most CEs account for more than 50% of the
// total" style of statement (Fig 5b). Returns 0 if the total is zero.
func TopShare(xs []float64, k int) float64 {
	if k <= 0 || len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	total, top := 0.0, 0.0
	for i, v := range sorted {
		total += v
		if i < k {
			top += v
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// LorenzPoint returns (fraction of total mass carried by the top k items).
// LorenzCurve returns, for each prefix length i in [0, len(xs)], the share
// of the total carried by the i largest values — the curve plotted in
// Fig 5b. The result has len(xs)+1 points, starting at 0 and ending at 1
// (or all zeros if the total is 0).
func LorenzCurve(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	total := 0.0
	for _, v := range sorted {
		total += v
	}
	out := make([]float64, len(sorted)+1)
	if total == 0 {
		return out
	}
	acc := 0.0
	for i, v := range sorted {
		acc += v
		out[i+1] = acc / total
	}
	return out
}

// CountsToFloats converts an integer count vector to float64 for use with
// the float-based routines in this package.
func CountsToFloats(counts []int) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c)
	}
	return out
}

// ErrInsufficientData is returned by fitting routines when the sample is
// too small to produce a meaningful estimate.
var ErrInsufficientData = fmt.Errorf("stats: insufficient data")
