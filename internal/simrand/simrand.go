// Package simrand provides deterministic, splittable random number streams
// and the sampling distributions used by the Astra memory-failure simulator.
//
// Everything in this package is reproducible: a Stream is fully determined
// by a 64-bit seed, and streams may be split by string label so that
// independent subsystems (fault generation, telemetry, inventory, ...)
// draw from statistically independent sequences without coordinating.
//
// The package also exposes stateless hash noise (Hash64, HashUnit) used by
// the procedural telemetry model in internal/envmodel, which must evaluate
// sensor samples at arbitrary (node, sensor, minute) coordinates in O(1)
// without storing the series.
package simrand

import (
	"math"
	"math/rand/v2"
)

// splitmix64 advances the SplitMix64 state and returns the next value.
// It is the standard avalanche mixer from Steele et al., used both for
// seeding PCG streams and as stateless coordinate noise.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes an arbitrary number of 64-bit coordinates into a single
// well-distributed 64-bit value. It is pure: the same inputs always yield
// the same output.
func Hash64(parts ...uint64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return splitmix64(h)
}

// HashString folds a string label into a 64-bit hash (FNV-1a followed by a
// SplitMix64 finalizer so short labels still differ in every bit).
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return splitmix64(h)
}

// HashUnit maps coordinates to a float64 uniformly distributed in [0, 1).
func HashUnit(parts ...uint64) float64 {
	return float64(Hash64(parts...)>>11) / (1 << 53)
}

// HashNorm maps coordinates to an approximately standard-normal deviate.
// It uses the sum of four independent uniforms (Irwin-Hall, variance 4/12)
// rescaled to unit variance; adequate for sensor noise, and pure.
func HashNorm(parts ...uint64) float64 {
	h := Hash64(parts...)
	s := 0.0
	for i := 0; i < 4; i++ {
		h = splitmix64(h)
		s += float64(h>>11) / (1 << 53)
	}
	// mean 2, variance 4/12 = 1/3 => scale by sqrt(3).
	return (s - 2) * 1.7320508075688772
}

// Stream is a deterministic random stream. The zero value is not usable;
// construct with NewStream or Stream.Derive.
type Stream struct {
	rng  *rand.Rand
	seed uint64
}

// NewStream returns a stream seeded by seed.
func NewStream(seed uint64) *Stream {
	return &Stream{
		rng:  rand.New(rand.NewPCG(splitmix64(seed), splitmix64(seed^0xdeadbeefcafef00d))),
		seed: seed,
	}
}

// Derive returns a new independent stream whose seed is determined by this
// stream's seed and the given label. Derive does not consume randomness
// from the parent, so the order of Derive calls never perturbs results.
func (s *Stream) Derive(label string) *Stream {
	return NewStream(Hash64(s.seed, HashString(label)))
}

// DeriveN returns a new independent stream keyed by label and an index,
// for per-entity substreams (for example one stream per node).
func (s *Stream) DeriveN(label string, n uint64) *Stream {
	return NewStream(Hash64(s.seed, HashString(label), n))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 { return s.rng.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.rng.IntN(n) }

// Int64N returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Stream) Int64N(n int64) int64 { return s.rng.Int64N(n) }

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.rng.Float64() < p }

// Norm returns a normal deviate with the given mean and standard deviation.
func (s *Stream) Norm(mean, sd float64) float64 {
	return mean + sd*s.rng.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Exp returns an exponential deviate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("simrand: Exp requires rate > 0")
	}
	return s.rng.ExpFloat64() / rate
}

// Poisson returns a Poisson deviate with the given mean. For small means it
// uses Knuth's product method; for large means a normal approximation with
// continuity correction, which is accurate to well under the sampling noise
// of the simulations here.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := math.Round(s.Norm(mean, math.Sqrt(mean)))
	if v < 0 {
		return 0
	}
	return int(v)
}

// Weibull returns a Weibull deviate with the given shape k and scale
// lambda, via inverse transform. It panics on non-positive parameters.
func (s *Stream) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("simrand: Weibull requires positive shape and scale")
	}
	u := s.rng.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Pareto returns a bounded Pareto deviate on [lo, hi] with tail exponent
// alpha > 0 (density ∝ x^-(alpha+1)). It panics on invalid parameters.
func (s *Stream) Pareto(alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi < lo {
		panic("simrand: Pareto requires alpha > 0 and 0 < lo <= hi")
	}
	u := s.rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// PowerLawInt returns an integer deviate k in [xmin, xmax] drawn from a
// discrete power law P(k) ∝ k^-alpha, using the continuous-approximation
// inverse method of Clauset, Shalizi & Newman (2009, appendix D): draw a
// continuous bounded Pareto on [xmin-1/2, xmax+1/2] with exponent alpha-1
// ... in practice the standard approximation floor(continuous + 1/2) is
// accurate for xmin >= 1. It panics on invalid parameters.
func (s *Stream) PowerLawInt(alpha float64, xmin, xmax int) int {
	if alpha <= 1 || xmin < 1 || xmax < xmin {
		panic("simrand: PowerLawInt requires alpha > 1 and 1 <= xmin <= xmax")
	}
	lo := float64(xmin) - 0.5
	hi := float64(xmax) + 0.5
	v := s.Pareto(alpha-1, lo, hi)
	k := int(math.Floor(v + 0.5))
	if k < xmin {
		k = xmin
	}
	if k > xmax {
		k = xmax
	}
	return k
}

// Categorical samples an index from the (unnormalized, non-negative)
// weights. It panics if weights is empty or sums to zero.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("simrand: Categorical weight < 0")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("simrand: Categorical requires positive total weight")
	}
	u := s.rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }
