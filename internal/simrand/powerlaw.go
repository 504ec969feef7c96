package simrand

import "math"

// PowerLaw is a sampler for the bounded discrete power law
// P(k) ∝ k^-alpha on [Xmin, Xmax]. It precomputes an exact inverse-CDF
// table for the head of the distribution (where nearly all mass lives) and
// falls back to a rounded continuous bounded Pareto for the far tail, where
// the continuous approximation error is negligible. Construct once, sample
// many times; the sampler itself is immutable and safe for concurrent use
// with distinct Streams.
type PowerLaw struct {
	alpha      float64
	xmin, xmax int
	headMax    int       // last value covered by the exact table
	cdf        []float64 // cdf[i] = P(X <= xmin+i) for xmin+i <= headMax
	headMass   float64   // total probability of the head region
}

// headTableSize bounds the exact head table.
const headTableSize = 4096

// NewPowerLaw builds a sampler. It panics if alpha <= 1, xmin < 1 or
// xmax < xmin.
func NewPowerLaw(alpha float64, xmin, xmax int) *PowerLaw {
	if alpha <= 1 || xmin < 1 || xmax < xmin {
		panic("simrand: NewPowerLaw requires alpha > 1 and 1 <= xmin <= xmax")
	}
	p := &PowerLaw{alpha: alpha, xmin: xmin, xmax: xmax}
	p.headMax = xmin + headTableSize - 1
	if p.headMax > xmax {
		p.headMax = xmax
	}
	// Unnormalized masses: head exactly, tail via the continuous integral
	// ∫_{headMax+1/2}^{xmax+1/2} x^-alpha dx (consistent with how the tail
	// is sampled).
	head := make([]float64, p.headMax-xmin+1)
	total := 0.0
	for k := xmin; k <= p.headMax; k++ {
		total += math.Pow(float64(k), -alpha)
		head[k-xmin] = total
	}
	tailMass := 0.0
	if p.headMax < xmax {
		a1 := alpha - 1
		tailMass = (math.Pow(float64(p.headMax)+0.5, -a1) - math.Pow(float64(xmax)+0.5, -a1)) / a1
	}
	z := total + tailMass
	p.cdf = head
	for i := range p.cdf {
		p.cdf[i] /= z
	}
	p.headMass = total / z
	return p
}

// Sample draws one value using randomness from s.
func (p *PowerLaw) Sample(s *Stream) int {
	u := s.Float64()
	if u < p.headMass || p.headMax == p.xmax {
		// Binary search the head table for the smallest k with cdf >= u.
		lo, hi := 0, len(p.cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if p.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return p.xmin + lo
	}
	// Tail: continuous bounded Pareto with density ∝ x^-alpha on
	// [headMax+1/2, xmax+1/2], rounded to the nearest integer.
	v := s.Pareto(p.alpha-1, float64(p.headMax)+0.5, float64(p.xmax)+0.5)
	k := int(math.Floor(v + 0.5))
	if k <= p.headMax {
		k = p.headMax + 1
	}
	if k > p.xmax {
		k = p.xmax
	}
	return k
}
