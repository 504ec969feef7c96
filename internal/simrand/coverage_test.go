package simrand

import (
	"math"
	"testing"
)

func TestIntNAndInt64NRanges(t *testing.T) {
	s := NewStream(41)
	for i := 0; i < 1000; i++ {
		if v := s.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
		if v := s.Int64N(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int64N out of range: %d", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := NewStream(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", got)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := NewStream(47)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed elements: %v", xs)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStream(1).Exp(0)
}

func TestParetoPanicsOnBadParams(t *testing.T) {
	cases := []struct{ alpha, lo, hi float64 }{
		{0, 1, 2}, {1, 0, 2}, {1, 3, 2},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pareto(%v,%v,%v) should panic", c.alpha, c.lo, c.hi)
				}
			}()
			NewStream(1).Pareto(c.alpha, c.lo, c.hi)
		}()
	}
}

func TestPowerLawIntPanicsOnBadParams(t *testing.T) {
	cases := []struct {
		alpha      float64
		xmin, xmax int
	}{{1, 1, 10}, {2, 0, 10}, {2, 5, 4}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PowerLawInt(%v,%d,%d) should panic", c.alpha, c.xmin, c.xmax)
				}
			}()
			NewStream(1).PowerLawInt(c.alpha, c.xmin, c.xmax)
		}()
	}
}

func TestWeibullPanicsOnBadParams(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Weibull(%v,%v) should panic", c[0], c[1])
				}
			}()
			NewStream(1).Weibull(c[0], c[1])
		}()
	}
}

func TestPowerLawIntBounds(t *testing.T) {
	s := NewStream(53)
	for i := 0; i < 5000; i++ {
		if v := s.PowerLawInt(1.5, 2, 50); v < 2 || v > 50 {
			t.Fatalf("PowerLawInt out of bounds: %d", v)
		}
	}
}
