package simrand

import (
	"math"
	"testing"
)

func TestPowerLawHeadProbabilities(t *testing.T) {
	// For alpha = 2.5 on [1, 1e6], P(1) should match 1/zeta(2.5) ~= 0.7454
	// and P(1)/P(2) = 2^2.5 ~= 5.657.
	pl := NewPowerLaw(2.5, 1, 1_000_000)
	rng := NewStream(1)
	const n = 400000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[pl.Sample(rng)]++
	}
	p1 := float64(counts[1]) / n
	if math.Abs(p1-0.7454) > 0.01 {
		t.Errorf("P(1) = %v, want ~0.7454", p1)
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-5.657) > 0.5 {
		t.Errorf("P(1)/P(2) = %v, want ~5.66", ratio)
	}
}

func TestPowerLawBounds(t *testing.T) {
	pl := NewPowerLaw(1.3, 5, 500)
	rng := NewStream(2)
	for i := 0; i < 50000; i++ {
		k := pl.Sample(rng)
		if k < 5 || k > 500 {
			t.Fatalf("sample %d out of [5,500]", k)
		}
	}
}

func TestPowerLawTinyRange(t *testing.T) {
	pl := NewPowerLaw(2, 3, 3)
	rng := NewStream(3)
	for i := 0; i < 100; i++ {
		if k := pl.Sample(rng); k != 3 {
			t.Fatalf("degenerate range sample = %d", k)
		}
	}
}

func TestPowerLawTailReachable(t *testing.T) {
	// With a shallow exponent and wide range, samples beyond the head
	// table must occur.
	pl := NewPowerLaw(1.2, 1, 10_000_000)
	rng := NewStream(4)
	sawTail := false
	for i := 0; i < 200000; i++ {
		if pl.Sample(rng) > headTableSize {
			sawTail = true
			break
		}
	}
	if !sawTail {
		t.Error("never sampled past the head table for a heavy tail")
	}
}

func TestNewPowerLawPanics(t *testing.T) {
	cases := []struct {
		alpha      float64
		xmin, xmax int
	}{{1.0, 1, 10}, {2, 0, 10}, {2, 10, 5}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPowerLaw(%v,%d,%d) should panic", c.alpha, c.xmin, c.xmax)
				}
			}()
			NewPowerLaw(c.alpha, c.xmin, c.xmax)
		}()
	}
}
