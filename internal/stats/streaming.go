package stats

import "math"

// Streaming accumulators for the failure-prediction feature extractor
// (internal/predict). Both are fixed-size and allocation-free on the
// update path, which lets the stream engine embed one per bank without
// touching the ingest hot path's zero-allocation contract. Both are
// also strictly deterministic functions of their input *sequence*: the
// prediction subsystem relies on updates being applied in arrival
// order on every path (record at a time or batched), so the structs
// deliberately provide no merge operation.

// Welford accumulates running mean and variance using Welford's
// online algorithm, which is numerically stable for long streams of
// inter-arrival gaps spanning milliseconds to months.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// P2Quantile estimates a single quantile online using the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers track the running
// quantile with O(1) state and no stored samples. For n ≤ 5 the
// estimate is exact. The estimate is deterministic in the input
// sequence, which the stream==batch feature differential depends on.
type P2Quantile struct {
	p    float64
	n    int64
	q    [5]float64 // marker heights
	npos [5]float64 // actual marker positions (1-based)
	want [5]float64 // desired marker positions
	dn   [5]float64 // desired position increments
}

// Init prepares the sketch to track quantile p in (0, 1). It must be
// called before Add; calling it again resets the sketch.
func (s *P2Quantile) Init(p float64) {
	if p <= 0 || p >= 1 {
		p = 0.5
	}
	*s = P2Quantile{p: p}
	s.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

// Add folds one observation into the sketch.
func (s *P2Quantile) Add(x float64) {
	if s.n < 5 {
		// Insertion sort the first five observations.
		i := int(s.n)
		for i > 0 && s.q[i-1] > x {
			s.q[i] = s.q[i-1]
			i--
		}
		s.q[i] = x
		s.n++
		if s.n == 5 {
			for j := 0; j < 5; j++ {
				s.npos[j] = float64(j + 1)
				s.want[j] = 1 + 4*s.dn[j]
			}
		}
		return
	}
	s.n++

	// Find the cell containing x and bump marker positions above it.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.npos[i]++
	}
	for i := 0; i < 5; i++ {
		s.want[i] += s.dn[i]
	}

	// Adjust the three interior markers toward their desired positions
	// with piecewise-parabolic (or linear fallback) interpolation.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.npos[i]
		if (d >= 1 && s.npos[i+1]-s.npos[i] > 1) || (d <= -1 && s.npos[i-1]-s.npos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			qn := s.parabolic(i, sign)
			if s.q[i-1] < qn && qn < s.q[i+1] {
				s.q[i] = qn
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.npos[i] += sign
		}
	}
}

func (s *P2Quantile) parabolic(i int, d float64) float64 {
	num1 := s.npos[i] - s.npos[i-1] + d
	num2 := s.npos[i+1] - s.npos[i] - d
	den := s.npos[i+1] - s.npos[i-1]
	return s.q[i] + d/den*(num1*(s.q[i+1]-s.q[i])/(s.npos[i+1]-s.npos[i])+
		num2*(s.q[i]-s.q[i-1])/(s.npos[i]-s.npos[i-1]))
}

func (s *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.npos[j]-s.npos[i])
}

// Value returns the current quantile estimate. For n ≤ 5 it returns
// the exact sample quantile (nearest-rank); with no observations it
// returns 0.
func (s *P2Quantile) Value() float64 {
	switch {
	case s.n == 0:
		return 0
	case s.n <= 5:
		// Nearest-rank on the sorted prefix.
		idx := int(s.p * float64(s.n))
		if idx >= int(s.n) {
			idx = int(s.n) - 1
		}
		return s.q[idx]
	default:
		return s.q[2]
	}
}
