package stats

import (
	"math"
	"sort"
)

// PowerLawFit is the result of fitting a discrete power law
// P(k) ∝ k^-alpha for k >= Xmin to integer count data.
type PowerLawFit struct {
	Alpha float64 // fitted tail exponent
	Xmin  int     // lower cutoff used for the fit
	KS    float64 // Kolmogorov-Smirnov distance between data and fit
	NTail int     // number of observations >= Xmin
}

// zetaTerms is the direct-summation length of the Hurwitz-zeta
// evaluations; the remainder is an Euler-Maclaurin tail correction.
const zetaTerms = 2000

// hurwitzZeta computes ζ(alpha, a) = Σ_{k=a}^{∞} k^-alpha for alpha > 1,
// a >= 1, by direct summation plus an Euler-Maclaurin tail correction.
func hurwitzZeta(alpha float64, a int) float64 {
	n := a + zetaTerms
	sum := 0.0
	for k := a; k < n; k++ {
		sum += math.Pow(float64(k), -alpha)
	}
	fn := float64(n)
	// Tail: ∫_n^∞ x^-alpha dx + f(n)/2 + alpha*f'(n)/12 correction.
	sum += math.Pow(fn, 1-alpha)/(alpha-1) + math.Pow(fn, -alpha)/2 + alpha*math.Pow(fn, -alpha-1)/12
	return sum
}

// zetaTable caches ln(k) for k in [a, a+zetaTerms) so the MLE bisection
// can evaluate both zeta sums at many alphas over the same support
// without recomputing logarithms: k^-alpha = exp(-alpha·ln k), so each
// term costs one Exp and one multiply instead of two Pows and a Log.
type zetaTable struct {
	a   int
	lnk []float64
}

func newZetaTable(a int) *zetaTable {
	t := &zetaTable{a: a, lnk: make([]float64, zetaTerms)}
	for i := range t.lnk {
		t.lnk[i] = math.Log(float64(a + i))
	}
	return t
}

// both returns ζ(alpha, a) and Σ ln(k)·k^-alpha in one fused pass, with
// the same Euler-Maclaurin tails as hurwitzZeta (∫ + boundary + f'
// correction) and its log-weighted counterpart
// ∫_n^∞ ln(x)·x^-alpha dx = n^(1-alpha)·(ln n/(alpha-1) + 1/(alpha-1)²).
func (t *zetaTable) both(alpha float64) (z, zlog float64) {
	for _, l := range t.lnk {
		e := math.Exp(-alpha * l)
		z += e
		zlog += l * e
	}
	fn := float64(t.a + zetaTerms)
	lnN := math.Log(fn)
	en := math.Exp(-alpha * lnN) // fn^-alpha
	am1 := alpha - 1
	z += en*fn/am1 + en/2 + alpha*en/fn/12
	zlog += en*fn*(lnN/am1+1/(am1*am1)) + lnN*en/2
	return z, zlog
}

// FitPowerLaw fits a discrete power law to the positive integer sample xs
// using the exact discrete maximum-likelihood estimator of Clauset, Shalizi
// & Newman (2009): alpha solves
//
//	Σ ln(k)·k^-alpha / Σ k^-alpha  (sums over k >= xmin)  =  mean(ln x_i)
//
// found by bisection, with the Kolmogorov-Smirnov distance between the
// empirical and fitted CDFs over the tail reported as goodness of fit.
// Values below xmin are ignored. It returns ErrInsufficientData if fewer
// than 10 tail observations remain.
func FitPowerLaw(xs []int, xmin int) (PowerLawFit, error) {
	if xmin < 1 {
		xmin = 1
	}
	tail := make([]int, 0, len(xs))
	sumLn := 0.0
	for _, x := range xs {
		if x >= xmin {
			tail = append(tail, x)
			sumLn += math.Log(float64(x))
		}
	}
	if len(tail) < 10 {
		return PowerLawFit{}, ErrInsufficientData
	}
	meanLn := sumLn / float64(len(tail))
	// g(alpha) = E_fit[ln k] - mean(ln x); decreasing in alpha. Bisect.
	// One zeta table serves all ~80 bisection evaluations.
	tbl := newZetaTable(xmin)
	g := func(alpha float64) float64 {
		z, zlog := tbl.both(alpha)
		return zlog/z - meanLn
	}
	lo, hi := 1.0001, 30.0
	if g(lo) < 0 {
		// Data heavier than any admissible power law head; report the
		// boundary rather than failing.
		return PowerLawFit{}, ErrInsufficientData
	}
	if g(hi) > 0 {
		hi = 300 // essentially all mass at xmin
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if g(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	sort.Ints(tail)
	fit := PowerLawFit{Alpha: (lo + hi) / 2, Xmin: xmin, NTail: len(tail)}
	fit.KS = powerLawKS(tail, fit.Alpha, xmin)
	return fit, nil
}

// FitPowerLawAuto scans candidate xmin values (every distinct value in the
// sample up to the 90th percentile) and returns the fit minimizing the KS
// distance, per the CSN recipe.
func FitPowerLawAuto(xs []int) (PowerLawFit, error) {
	distinct := map[int]bool{}
	var vals []int
	for _, x := range xs {
		if x >= 1 && !distinct[x] {
			distinct[x] = true
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return PowerLawFit{}, ErrInsufficientData
	}
	sort.Ints(vals)
	cutoff := vals[(len(vals)*9)/10]
	best := PowerLawFit{KS: math.Inf(1)}
	found := false
	for _, xmin := range vals {
		if xmin > cutoff {
			break
		}
		fit, err := FitPowerLaw(xs, xmin)
		if err != nil {
			continue
		}
		if fit.KS < best.KS {
			best = fit
			found = true
		}
	}
	if !found {
		return PowerLawFit{}, ErrInsufficientData
	}
	return best, nil
}

// powerLawKS computes the KS distance between the empirical CDF of the
// sorted tail sample and the fitted discrete power-law CDF. The empirical
// CDF is evaluated at distinct sample values (full step height), so heavy
// ties at small k are handled correctly.
func powerLawKS(sortedTail []int, alpha float64, xmin int) float64 {
	n := float64(len(sortedTail))
	maxX := sortedTail[len(sortedTail)-1]
	z := hurwitzZeta(alpha, xmin)
	// Fitted CDF over [xmin, maxX].
	cdf := make([]float64, maxX+1)
	acc := 0.0
	for k := xmin; k <= maxX; k++ {
		acc += math.Pow(float64(k), -alpha) / z
		cdf[k] = acc
	}
	ks := 0.0
	for i := 0; i < len(sortedTail); {
		x := sortedTail[i]
		j := i
		for j+1 < len(sortedTail) && sortedTail[j+1] == x {
			j++
		}
		emp := float64(j+1) / n // empirical CDF at x (after the full step)
		if d := math.Abs(emp - cdf[x]); d > ks {
			ks = d
		}
		// Also check the gap just before the step (empirical CDF at x-).
		empBefore := float64(i) / n
		model := 0.0
		if x > xmin {
			model = cdf[x-1]
		}
		if d := math.Abs(empBefore - model); d > ks {
			ks = d
		}
		i = j + 1
	}
	return ks
}
