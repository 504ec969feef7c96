package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 2, 3) != Hash64(1, 2, 3) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2, 3) == Hash64(3, 2, 1) {
		t.Fatal("Hash64 should be order sensitive")
	}
	if Hash64(0) == Hash64(1) {
		t.Fatal("Hash64 collision on trivial inputs")
	}
}

func TestHashStringDistinct(t *testing.T) {
	seen := map[uint64]string{}
	labels := []string{"", "a", "b", "ab", "ba", "faults", "telemetry", "inventory", "node-0", "node-1"}
	for _, l := range labels {
		h := HashString(l)
		if prev, ok := seen[h]; ok {
			t.Fatalf("HashString collision: %q and %q", prev, l)
		}
		seen[h] = l
	}
}

func TestHashUnitRange(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		u := HashUnit(a, b)
		return u >= 0 && u < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashNormMoments(t *testing.T) {
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := uint64(0); i < n; i++ {
		v := HashNorm(i, 42)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("HashNorm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("HashNorm variance = %v, want ~1", variance)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(7)
	b := NewStream(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestDeriveIndependentOfOrder(t *testing.T) {
	p1 := NewStream(1)
	p2 := NewStream(1)
	// Deriving in different orders must give identical child streams.
	a1 := p1.Derive("a")
	b1 := p1.Derive("b")
	b2 := p2.Derive("b")
	a2 := p2.Derive("a")
	if a1.Uint64() != a2.Uint64() || b1.Uint64() != b2.Uint64() {
		t.Fatal("Derive depends on call order")
	}
}

func TestDeriveNDistinct(t *testing.T) {
	s := NewStream(3)
	a := s.DeriveN("node", 0)
	b := s.DeriveN("node", 1)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("DeriveN streams look identical")
	}
}

func TestPoissonMean(t *testing.T) {
	s := NewStream(5)
	for _, mean := range []float64{0.5, 3, 25, 100} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	s := NewStream(5)
	if got := s.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", got)
	}
}

func TestParetoBounds(t *testing.T) {
	s := NewStream(9)
	for i := 0; i < 10000; i++ {
		v := s.Pareto(1.2, 1, 1000)
		if v < 1 || v > 1000 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestPowerLawIntBoundsAndShape(t *testing.T) {
	s := NewStream(13)
	const n = 200000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		k := s.PowerLawInt(2.5, 1, 1000)
		if k < 1 || k > 1000 {
			t.Fatalf("PowerLawInt out of bounds: %d", k)
		}
		counts[k]++
	}
	// For alpha = 2.5 the ratio P(1)/P(2) should be about 2^2.5 ~= 5.66.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 4 || ratio > 8 {
		t.Errorf("P(1)/P(2) = %v, want ~5.7", ratio)
	}
	// Most mass at 1.
	if float64(counts[1])/n < 0.5 {
		t.Errorf("P(1) = %v, want > 0.5", float64(counts[1])/n)
	}
}

func TestCategoricalProportions(t *testing.T) {
	s := NewStream(17)
	w := []float64{1, 2, 7}
	const n = 100000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) should panic", w)
				}
			}()
			NewStream(1).Categorical(w)
		}()
	}
}

func TestExpMean(t *testing.T) {
	s := NewStream(23)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(2)
	}
	if got := sum / n; math.Abs(got-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want 0.5", got)
	}
}

func TestNormMoments(t *testing.T) {
	s := NewStream(29)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 || math.Abs(sd-3) > 0.05 {
		t.Errorf("Norm(10,3): mean=%v sd=%v", mean, sd)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := NewStream(31)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(37)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
