package stats

import (
	"math"
	"sort"
)

// WeibullFit is a maximum-likelihood fit of a Weibull distribution with
// shape k and scale lambda. Shape < 1 means a decreasing hazard — the
// statistical signature of the infant-mortality period in §3.1's
// replacement data; shape ≈ 1 is the memoryless (exponential) regime of
// steady-state failures; shape > 1 indicates wear-out.
type WeibullFit struct {
	Shape float64 // k
	Scale float64 // lambda
	N     int
}

// FitWeibull fits by MLE over strictly positive lifetimes: the shape
// solves the standard profile-likelihood equation
//
//	Σ x^k ln x / Σ x^k − 1/k = mean(ln x)
//
// (monotone in k, solved by bisection), and the scale follows in closed
// form. Returns ErrInsufficientData for fewer than 3 positive samples or
// degenerate (all-equal) data.
func FitWeibull(lifetimes []float64) (WeibullFit, error) {
	xs := make([]float64, 0, len(lifetimes))
	sumLn := 0.0
	for _, x := range lifetimes {
		if x > 0 {
			xs = append(xs, x)
			sumLn += math.Log(x)
		}
	}
	n := float64(len(xs))
	if len(xs) < 3 {
		return WeibullFit{}, ErrInsufficientData
	}
	lo0, hi0 := xs[0], xs[0]
	for _, x := range xs {
		lo0 = math.Min(lo0, x)
		hi0 = math.Max(hi0, x)
	}
	if lo0 == hi0 {
		// Constant lifetimes: the shape MLE diverges.
		return WeibullFit{}, ErrInsufficientData
	}
	meanLn := sumLn / n
	g := func(k float64) float64 {
		var sumXk, sumXkLn float64
		for _, x := range xs {
			xk := math.Pow(x, k)
			sumXk += xk
			sumXkLn += xk * math.Log(x)
		}
		return sumXkLn/sumXk - 1/k - meanLn
	}
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 && hi < 1e6 {
		hi *= 2
	}
	if g(hi) < 0 || g(lo) > 0 {
		return WeibullFit{}, ErrInsufficientData
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	sumXk := 0.0
	for _, x := range xs {
		sumXk += math.Pow(x, k)
	}
	return WeibullFit{Shape: k, Scale: math.Pow(sumXk/n, 1/k), N: len(xs)}, nil
}

// Mean returns the distribution mean lambda·Γ(1 + 1/k).
func (w WeibullFit) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// Survival returns S(t) = exp(-(t/lambda)^k).
func (w WeibullFit) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(t/w.Scale, w.Shape))
}

// KMPoint is one step of a Kaplan-Meier survival curve.
type KMPoint struct {
	Time     float64 // event time
	Survival float64 // S(t) just after the event
	AtRisk   int     // subjects at risk immediately before the event
	Events   int     // failures at this time
}

// KaplanMeier estimates the survival function from possibly right-censored
// lifetime data: times[i] is the observed time and observed[i] reports
// whether a failure was observed (false = censored, e.g. a component still
// alive when the study window closed — most of Astra's parts were never
// replaced). It returns the step curve at each distinct failure time.
// Panics on length mismatch; returns nil for empty input.
func KaplanMeier(times []float64, observed []bool) []KMPoint {
	if len(times) != len(observed) {
		panic("stats: KaplanMeier length mismatch")
	}
	n := len(times)
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return times[idx[a]] < times[idx[b]] })
	var out []KMPoint
	s := 1.0
	atRisk := n
	for i := 0; i < n; {
		t := times[idx[i]]
		events, censored := 0, 0
		j := i
		for ; j < n && times[idx[j]] == t; j++ {
			if observed[idx[j]] {
				events++
			} else {
				censored++
			}
		}
		if events > 0 {
			s *= 1 - float64(events)/float64(atRisk)
			out = append(out, KMPoint{Time: t, Survival: s, AtRisk: atRisk, Events: events})
		}
		atRisk -= events + censored
		i = j
	}
	return out
}

// SurvivalAt evaluates a Kaplan-Meier curve at time t (step function,
// right-continuous). Returns 1 before the first event.
func SurvivalAt(curve []KMPoint, t float64) float64 {
	s := 1.0
	for _, p := range curve {
		if p.Time > t {
			break
		}
		s = p.Survival
	}
	return s
}

// MTBF returns the mean time between failures for a population observed
// for totalTime device-units with failures failures, the standard
// field-data estimator. Returns +Inf for zero failures.
func MTBF(totalDeviceTime float64, failures int) float64 {
	if failures <= 0 {
		return math.Inf(1)
	}
	return totalDeviceTime / float64(failures)
}
