package stats

import (
	"math"
	"sort"

	"repro/internal/simrand"
)

// ChiSquare is the result of a chi-square goodness-of-fit test of observed
// counts against expected counts.
type ChiSquare struct {
	Statistic float64
	DF        int
	PValue    float64
}

// ChiSquareUniform tests whether observed counts are consistent with a
// uniform distribution across the cells. This is the "variation can be
// explained by statistical noise" test applied to the per-socket, per-bank,
// per-column and per-region fault distributions (§3.2, §3.4). It returns
// ErrInsufficientData for fewer than 2 cells or a zero total.
func ChiSquareUniform(observed []int) (ChiSquare, error) {
	if len(observed) < 2 {
		return ChiSquare{}, ErrInsufficientData
	}
	total := 0
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return ChiSquare{}, ErrInsufficientData
	}
	expected := float64(total) / float64(len(observed))
	stat := 0.0
	for _, o := range observed {
		d := float64(o) - expected
		stat += d * d / expected
	}
	df := len(observed) - 1
	return ChiSquare{Statistic: stat, DF: df, PValue: chiSquareSF(stat, df)}, nil
}

// chiSquareSF returns P(X >= x) for a chi-square distribution with df
// degrees of freedom, via the regularized upper incomplete gamma function
// Q(df/2, x/2).
func chiSquareSF(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return gammaQ(float64(df)/2, x/2)
}

// gammaQ computes the regularized upper incomplete gamma function Q(a, x)
// using the series expansion for x < a+1 and the continued fraction
// otherwise (Numerical Recipes 6.2).
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQCF(a, x)
}

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-14 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// BootstrapCI estimates a (1-2p) confidence interval for statistic fn over
// sample xs using iters bootstrap resamples driven by rng. For example
// p = 0.025 yields a 95% interval. An empty sample — reachable from
// degraded external data — returns (0, 0, false).
func BootstrapCI(rng *simrand.Stream, xs []float64, fn func([]float64) float64, iters int, p float64) (lo, hi float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	if iters <= 0 {
		iters = 1000
	}
	vals := make([]float64, iters)
	resample := make([]float64, len(xs))
	for i := 0; i < iters; i++ {
		for j := range resample {
			resample[j] = xs[rng.IntN(len(xs))]
		}
		vals[i] = fn(resample)
	}
	sort.Float64s(vals)
	lo, _ = Quantile(vals, p)
	hi, _ = Quantile(vals, 1-p)
	return lo, hi, true
}
