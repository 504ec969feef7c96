package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/simrand"
)

func batchMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	return mean, variance / float64(len(xs))
}

func exactQuantile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestWelfordMatchesBatch is the property test the satellite asks for:
// the streaming mean/variance must match batch recomputation over
// random sequences drawn from the distributions feature extraction
// actually sees (heavy-tailed inter-arrival gaps).
func TestWelfordMatchesBatch(t *testing.T) {
	rng := simrand.NewStream(7).Derive("welford")
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(2000)
		xs := make([]float64, n)
		for i := range xs {
			// Lognormal gaps: seconds to months.
			xs[i] = rng.LogNormal(4, 3)
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean, variance := batchMeanVar(xs)
		if w.n != int64(n) {
			t.Fatalf("trial %d: N=%d want %d", trial, w.n, n)
		}
		if relErr(w.Mean(), mean) > 1e-9 {
			t.Fatalf("trial %d: mean %g want %g", trial, w.Mean(), mean)
		}
		if relErr(w.Variance(), variance) > 1e-6 {
			t.Fatalf("trial %d: variance %g want %g", trial, w.Variance(), variance)
		}
		if got, want := w.Std(), math.Sqrt(variance); relErr(got, want) > 1e-6 {
			t.Fatalf("trial %d: std %g want %g", trial, got, want)
		}
	}
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if math.Abs(want) > 1 {
		return d / math.Abs(want)
	}
	return d
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Std() != 0 || w.n != 0 {
		t.Fatalf("empty Welford not zero: %+v", w)
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Fatalf("single observation: mean=%g var=%g", w.Mean(), w.Variance())
	}
}

// TestP2QuantileExactSmall: for n ≤ 5 the sketch stores the samples and
// must return the exact nearest-rank quantile.
func TestP2QuantileExactSmall(t *testing.T) {
	for _, p := range []float64{0.25, 0.5, 0.9} {
		xs := []float64{5, 1, 4, 2, 3}
		for n := 1; n <= 5; n++ {
			var s P2Quantile
			s.Init(p)
			for _, x := range xs[:n] {
				s.Add(x)
			}
			want := exactQuantile(xs[:n], p)
			if got := s.Value(); got != want {
				t.Fatalf("p=%v n=%d: got %g want %g", p, n, got, want)
			}
		}
	}
}

// TestP2QuantileApproximatesBatch: the P² estimate must track the exact
// sample quantile within a loose relative tolerance across
// distributions and quantiles. P² is an approximation; the tolerance
// is wide but catches sign/offset/marker bugs immediately.
func TestP2QuantileApproximatesBatch(t *testing.T) {
	rng := simrand.NewStream(11).Derive("p2")
	dists := []struct {
		name string
		gen  func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() * 1000 }},
		{"exponential", func() float64 { return rng.Exp(1.0 / 3600) }},
		{"lognormal", func() float64 { return rng.LogNormal(6, 1.5) }},
	}
	for _, d := range dists {
		for _, p := range []float64{0.5, 0.9} {
			n := 5000
			xs := make([]float64, n)
			var s P2Quantile
			s.Init(p)
			for i := range xs {
				xs[i] = d.gen()
				s.Add(xs[i])
			}
			if s.n != int64(n) {
				t.Fatalf("%s p=%v: N=%d", d.name, p, s.n)
			}
			want := exactQuantile(xs, p)
			got := s.Value()
			// Compare in rank space: the estimate must sit between the
			// exact p-0.08 and p+0.08 sample quantiles.
			lo := exactQuantile(xs, math.Max(0, p-0.08))
			hi := exactQuantile(xs, math.Min(0.999, p+0.08))
			if got < lo || got > hi {
				t.Fatalf("%s p=%v: estimate %g outside [%g, %g] (exact %g)",
					d.name, p, got, lo, hi, want)
			}
		}
	}
}

// TestP2QuantileDeterministic: identical input sequences must produce
// bit-identical sketches — the stream==batch feature differential
// depends on this.
func TestP2QuantileDeterministic(t *testing.T) {
	gen := func() P2Quantile {
		rng := simrand.NewStream(3).Derive("det")
		var s P2Quantile
		s.Init(0.5)
		for i := 0; i < 10000; i++ {
			s.Add(rng.Float64() * 1e6)
		}
		return s
	}
	a, b := gen(), gen()
	if a != b {
		t.Fatalf("sketch state diverged on identical input:\n%+v\n%+v", a, b)
	}
}

func TestP2QuantileInitDefaults(t *testing.T) {
	var s P2Quantile
	s.Init(-1) // out of range → median
	s.Add(1)
	s.Add(2)
	s.Add(3)
	if got := s.Value(); got != 2 {
		t.Fatalf("default-p median: got %g want 2", got)
	}
	if s.Value() != 2 { // Value must not mutate
		t.Fatalf("Value mutated state")
	}
}
