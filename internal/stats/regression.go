package stats

import (
	"math"
	"sort"
)

// LinearFit is the result of an ordinary-least-squares fit y = a + b*x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	StdErr    float64 // standard error of the slope
	N         int
}

// FitLinear performs an OLS fit of y against x. It returns
// ErrInsufficientData if fewer than two points are provided or x is
// constant; it panics if the slices differ in length (caller bug).
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		panic("stats: FitLinear length mismatch")
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrInsufficientData
	}
	fit := LinearFit{N: n}
	fit.Slope = sxy / sxx
	fit.Intercept = my - fit.Slope*mx
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // y constant and perfectly predicted by a flat line
	}
	if n > 2 {
		sse := syy - fit.Slope*sxy
		if sse < 0 {
			sse = 0
		}
		fit.StdErr = math.Sqrt(sse / float64(n-2) / sxx)
	}
	return fit, nil
}

// SlopeT returns the t-statistic of the slope against the null hypothesis
// slope = 0. Returns +-Inf when the standard error is 0 and the slope is
// not, and 0 when both are 0.
func (f LinearFit) SlopeT() float64 {
	if f.StdErr == 0 {
		if f.Slope == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, f.Slope)))
	}
	return f.Slope / f.StdErr
}

// Pearson returns the Pearson linear correlation coefficient of x and y.
// It returns 0 for degenerate inputs (length < 2 or zero variance) and
// panics on length mismatch.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	n := len(x)
	if n < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation coefficient, computed as
// the Pearson correlation of the mid-ranks (ties averaged).
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Spearman length mismatch")
	}
	return Pearson(ranks(x), ranks(y))
}

// ranks assigns mid-ranks (1-based, ties averaged).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for ties i..j (1-based ranks i+1..j+1).
		r := float64(i+j+2) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = r
		}
		i = j + 1
	}
	return out
}
