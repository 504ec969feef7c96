package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: every Add is accounted for — in-range bins plus under/over
// always sum to the number of observations.
func TestHistogramAccountingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		h := NewHistogram(-100, 100, 13)
		for _, v := range raw {
			h.Add(float64(v))
		}
		in := 0
		for _, c := range h.Counts {
			in += c
		}
		return in+h.Under+h.Over == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Lorenz curve is monotone non-decreasing in [0, 1] for any
// non-negative input.
func TestLorenzCurveProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lc := LorenzCurve(xs)
		if len(lc) != len(xs)+1 || lc[0] != 0 {
			return false
		}
		for i := 1; i < len(lc); i++ {
			if lc[i] < lc[i-1] || lc[i] > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: descriptive order invariants Min <= Q1 <= Median <= Q3 <= Max.
func TestSummarizeOrderProperty(t *testing.T) {
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is bounded in [-1, 1] and symmetric.
func TestPearsonBoundsProperty(t *testing.T) {
	f := func(a, b []int8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(a[i])
			ys[i] = float64(b[i])
		}
		r := Pearson(xs, ys)
		if math.Abs(r) > 1+1e-9 {
			return false
		}
		return math.Abs(r-Pearson(ys, xs)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: KaplanMeier survival values are non-increasing and in [0, 1]
// for arbitrary (time, observed) data.
func TestKaplanMeierMonotoneProperty(t *testing.T) {
	f := func(raw []uint8, obsBits []bool) bool {
		n := len(raw)
		if len(obsBits) < n {
			n = len(obsBits)
		}
		times := make([]float64, n)
		obs := make([]bool, n)
		for i := 0; i < n; i++ {
			times[i] = float64(raw[i]) + 1
			obs[i] = obsBits[i]
		}
		curve := KaplanMeier(times, obs)
		prev := 1.0
		for _, p := range curve {
			if p.Survival < -1e-9 || p.Survival > prev+1e-9 {
				return false
			}
			prev = p.Survival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
