package stats

import (
	"fmt"
	"sort"
)

// DecileBin is one bin of a decile analysis: the samples whose key value
// falls in one tenth of the key distribution, with the maximum key in the
// bin (the paper plots "x = maximum sample value within a decile") and the
// mean of the associated response values ("y = average monthly CE rate over
// the decile", Fig 13).
type DecileBin struct {
	MaxKey    float64 // largest key value in the decile
	MeanValue float64 // mean of the response values in the decile
	N         int     // number of samples in the decile
}

// Deciles splits (key, value) pairs into 10 equal-population bins by key
// and returns per-bin summaries, reproducing the Schroeder-style decile
// analysis of §3.3. It returns ErrInsufficientData for fewer than 10 pairs
// and panics on length mismatch.
func Deciles(keys, values []float64) ([]DecileBin, error) {
	return QuantileBins(keys, values, 10)
}

// QuantileBins is the general form of Deciles with a configurable number
// of equal-population bins.
func QuantileBins(keys, values []float64, bins int) ([]DecileBin, error) {
	if len(keys) != len(values) {
		panic("stats: QuantileBins length mismatch")
	}
	if bins < 2 {
		return nil, fmt.Errorf("stats: QuantileBins needs >= 2 bins: %w", ErrInsufficientData)
	}
	n := len(keys)
	if n < bins {
		return nil, ErrInsufficientData
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]DecileBin, bins)
	for b := 0; b < bins; b++ {
		lo := b * n / bins
		hi := (b + 1) * n / bins
		bin := &out[b]
		sum := 0.0
		for _, i := range idx[lo:hi] {
			sum += values[i]
			if keys[i] > bin.MaxKey || bin.N == 0 {
				bin.MaxKey = keys[i]
			}
			bin.N++
		}
		if bin.N > 0 {
			bin.MeanValue = sum / float64(bin.N)
		}
	}
	return out, nil
}

// DecileSpread returns the difference between the highest and lowest
// decile maxima — the paper's "difference between the first and ninth
// deciles" temperature-range comparison (§3.3). For k deciles it uses
// bins[len-2].MaxKey - bins[0].MaxKey to match "first to ninth"; pass the
// output of Deciles.
func DecileSpread(bins []DecileBin) float64 {
	if len(bins) < 2 {
		return 0
	}
	return bins[len(bins)-2].MaxKey - bins[0].MaxKey
}

// TrendVerdict classifies the relationship in a decile analysis: it fits a
// line to (MaxKey, MeanValue) and reports the fit. The paper's conclusion
// "no discernible trend as the temperature increases" corresponds to a
// statistically weak slope relative to the response scale.
func TrendVerdict(bins []DecileBin) (LinearFit, error) {
	if len(bins) < 3 {
		return LinearFit{}, ErrInsufficientData
	}
	x := make([]float64, len(bins))
	y := make([]float64, len(bins))
	for i, b := range bins {
		x[i] = b.MaxKey
		y[i] = b.MeanValue
	}
	return FitLinear(x, y)
}
