package stats

import "fmt"

// Histogram is a fixed-width binned histogram over [Lo, Hi). Values outside
// the range are counted in Under/Over rather than silently dropped, because
// the sensor datasets contain invalid readings that the analysis must
// account for explicitly.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
}

// NewHistogram creates a histogram with bins equal-width bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v)/%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // float edge case at Hi boundary
			i--
		}
		h.Counts[i]++
	}
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// CountHistogram tallies how many entities experienced each integer count;
// it is the "number of nodes (y) that saw x faults" transform used by
// Figures 5a and 8. Keys are counts, values are numbers of entities.
type CountHistogram map[int]int

// NewCountHistogram tallies the multiplicity of each value in counts.
func NewCountHistogram(counts []int) CountHistogram {
	h := CountHistogram{}
	for _, c := range counts {
		h[c]++
	}
	return h
}

// SortedCounts returns the distinct count values in ascending order.
func (h CountHistogram) SortedCounts() []int {
	out := make([]int, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; tiny key sets
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
