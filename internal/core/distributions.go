package core

import (
	"sort"
	"strconv"

	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ModeBreakdown is the Fig 4a decomposition: per calendar month, the total
// error count and the error count attributed to faults of each mode.
type ModeBreakdown struct {
	// Months lists the month keys in order.
	Months []int
	// AllErrors[i] is the total CE count in Months[i].
	AllErrors []int
	// ByMode[m][i] is the CE count in Months[i] from faults of mode m.
	ByMode [NumFaultModes][]int
	// FaultsByMode counts faults per mode over the whole window.
	FaultsByMode [NumFaultModes]int
	// ErrorsByMode counts errors per mode over the whole window.
	ErrorsByMode [NumFaultModes]int
	// Total is the overall CE count (paper: 4,369,731).
	Total int
	// Degraded reports that the input was empty (reachable from fully
	// corrupted telemetry) and every field is a defined zero value.
	Degraded bool
}

// BreakdownByMode computes the Fig 4a series from clustered faults.
func BreakdownByMode(records []mce.CERecord, faults []Fault) ModeBreakdown {
	var b ModeBreakdown
	if len(records) == 0 {
		b.Degraded = true
		return b
	}
	first, last := records[0].Time, records[0].Time
	for _, r := range records {
		if r.Time.Before(first) {
			first = r.Time
		}
		if r.Time.After(last) {
			last = r.Time
		}
	}
	startKey := simtime.MonthKey(first)
	endKey := simtime.MonthKey(last)
	n := endKey - startKey + 1
	b.Months = make([]int, n)
	for i := range b.Months {
		b.Months[i] = startKey + i
	}
	b.AllErrors = make([]int, n)
	for m := range b.ByMode {
		b.ByMode[m] = make([]int, n)
	}
	for _, r := range records {
		b.AllErrors[simtime.MonthKey(r.Time)-startKey]++
		b.Total++
	}
	for _, f := range faults {
		b.FaultsByMode[f.Mode]++
		b.ErrorsByMode[f.Mode] += f.NErrors
		series := b.ByMode[f.Mode]
		for _, idx := range f.Errors {
			series[simtime.MonthKey(records[idx].Time)-startKey]++
		}
	}
	return b
}

// ErrorsPerFault summarizes the Fig 4b violin: the distribution of error
// counts across faults.
type ErrorsPerFault struct {
	Counts  []int // per-fault error counts, ascending
	Median  float64
	Mean    float64
	Max     int
	Summary stats.Summary
	// Degraded reports an empty fault population (zero-valued summary).
	Degraded bool
}

// ErrorsPerFaultDist computes the Fig 4b distribution.
func ErrorsPerFaultDist(faults []Fault) ErrorsPerFault {
	out := ErrorsPerFault{Counts: make([]int, 0, len(faults)), Degraded: len(faults) == 0}
	for _, f := range faults {
		out.Counts = append(out.Counts, f.NErrors)
		if f.NErrors > out.Max {
			out.Max = f.NErrors
		}
	}
	sort.Ints(out.Counts)
	fs := stats.CountsToFloats(out.Counts)
	out.Summary = stats.Summarize(fs)
	out.Median = out.Summary.Median
	out.Mean = out.Summary.Mean
	return out
}

// PerNode is the Fig 5 analysis: error and fault counts by node, the
// count histogram, the concentration statistics and the power-law fit.
type PerNode struct {
	// Errors and Faults map node -> count (nodes with zero omitted).
	Errors map[topology.NodeID]int
	Faults map[topology.NodeID]int
	// FaultHistogram is the Fig 5a transform: fault count -> node count.
	FaultHistogram stats.CountHistogram
	// NodesWithErrors is the number of nodes with >= 1 CE (paper: 1013).
	NodesWithErrors int
	// TopShare8 is the CE share of the 8 busiest nodes (paper: > 0.5).
	TopShare8 float64
	// TopShare2Pct is the CE share of the top 2% of nodes (paper: ~0.9).
	TopShare2Pct float64
	// Lorenz is the Fig 5b cumulative-share curve over nodes sorted by
	// CE count descending.
	Lorenz []float64
	// PowerLaw is the fit to the per-node fault counts (Fig 5a).
	PowerLaw stats.PowerLawFit
	// PowerLawErr reports a fit failure (small samples).
	PowerLawErr error
	// Degraded reports an empty record population or a non-positive
	// totalNodes; concentration statistics are zero-valued.
	Degraded bool
}

// AnalyzePerNode computes the Fig 5 statistics. totalNodes is the system
// size used for the top-2% cut (2592 on the full system).
func AnalyzePerNode(records []mce.CERecord, faults []Fault, totalNodes int) PerNode {
	out := PerNode{
		Errors:   map[topology.NodeID]int{},
		Faults:   map[topology.NodeID]int{},
		Degraded: len(records) == 0 || totalNodes <= 0,
	}
	for _, r := range records {
		out.Errors[r.Node]++
	}
	for _, f := range faults {
		out.Faults[f.Node]++
	}
	out.NodesWithErrors = len(out.Errors)
	perNode := make([]float64, 0, len(out.Errors))
	for _, c := range out.Errors {
		perNode = append(perNode, float64(c))
	}
	out.TopShare8 = stats.TopShare(perNode, 8)
	out.TopShare2Pct = stats.TopShare(perNode, totalNodes*2/100)
	out.Lorenz = stats.LorenzCurve(perNode)
	var faultCounts []int
	for _, c := range out.Faults {
		faultCounts = append(faultCounts, c)
	}
	out.FaultHistogram = stats.NewCountHistogram(faultCounts)
	out.PowerLaw, out.PowerLawErr = stats.FitPowerLaw(faultCounts, 1)
	return out
}

// StructureCounts pairs the error and fault count vectors for one
// structural dimension, with uniformity tests — the Fig 6/7 payload.
type StructureCounts struct {
	// Labels names the cells (e.g. slot letters).
	Labels []string
	// Errors and Faults are the per-cell counts.
	Errors []int
	Faults []int
	// ErrorChi2 and FaultChi2 test uniformity of each vector.
	ErrorChi2, FaultChi2 stats.ChiSquare
}

func newStructure(labels []string) StructureCounts {
	return StructureCounts{
		Labels: labels,
		Errors: make([]int, len(labels)),
		Faults: make([]int, len(labels)),
	}
}

func (s *StructureCounts) finish() {
	if cs, err := stats.ChiSquareUniform(s.Errors); err == nil {
		s.ErrorChi2 = cs
	}
	if cs, err := stats.ChiSquareUniform(s.Faults); err == nil {
		s.FaultChi2 = cs
	}
}

// Divergence quantifies the paper's central methodological point for one
// structure: how different a picture error counts paint compared to fault
// counts.
type Divergence struct {
	// TotalVariation is the TV distance between the normalized error and
	// fault distributions: 0 when errors are a faithful proxy for
	// faults, up to 1 when they concentrate on entirely different cells.
	TotalVariation float64
	// RankCorrelation is the Spearman correlation between per-cell error
	// and fault counts: a study ranking cells ("which slot is worst?")
	// by errors instead of faults flips conclusions when this is low or
	// negative.
	RankCorrelation float64
}

// Divergence computes the error-vs-fault disagreement for the structure.
// Zero-valued when either vector is empty.
func (s StructureCounts) Divergence() Divergence {
	var d Divergence
	var errTotal, faultTotal float64
	for i := range s.Errors {
		errTotal += float64(s.Errors[i])
		faultTotal += float64(s.Faults[i])
	}
	if errTotal == 0 || faultTotal == 0 {
		return d
	}
	for i := range s.Errors {
		d.TotalVariation += 0.5 * abs(float64(s.Errors[i])/errTotal-float64(s.Faults[i])/faultTotal)
	}
	d.RankCorrelation = stats.Spearman(stats.CountsToFloats(s.Errors), stats.CountsToFloats(s.Faults))
	return d
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Structures aggregates the within-node positional analyses of Figs 6, 7.
type Structures struct {
	Socket StructureCounts // Fig 6a/6d
	Bank   StructureCounts // Fig 6b/6e
	Column StructureCounts // Fig 6c/6f (column index folded into 16 bins)
	Rank   StructureCounts // Fig 7a/7b
	Slot   StructureCounts // Fig 7c/7d
}

// ColumnBins is the number of bins the column dimension is folded into for
// Fig 6c/6f (the paper's figure shows on the order of two dozen column
// groups).
const ColumnBins = 16

// AnalyzeStructures computes the Fig 6/7 error and fault distributions.
// Fault counts weight each fault once, regardless of its error count —
// the paper's core "count faults, not errors" move.
func AnalyzeStructures(records []mce.CERecord, faults []Fault) Structures {
	var s Structures
	s.Socket = newStructure([]string{"0", "1"})
	bankLabels := make([]string, topology.BanksPerRank)
	for i := range bankLabels {
		bankLabels[i] = strconv.Itoa(i)
	}
	s.Bank = newStructure(bankLabels)
	colLabels := make([]string, ColumnBins)
	for i := range colLabels {
		colLabels[i] = strconv.Itoa(i)
	}
	s.Column = newStructure(colLabels)
	s.Rank = newStructure([]string{"0", "1"})
	slotLabels := make([]string, topology.SlotsPerNode)
	for i, sl := range topology.AllSlots() {
		slotLabels[i] = sl.Name()
	}
	s.Slot = newStructure(slotLabels)

	colBin := func(col int) int { return col * ColumnBins / topology.ColsPerRow }

	for _, r := range records {
		s.Socket.Errors[r.Socket]++
		s.Bank.Errors[r.Bank]++
		s.Column.Errors[colBin(r.Col)]++
		s.Rank.Errors[r.Rank]++
		s.Slot.Errors[r.Slot]++
	}
	for _, f := range faults {
		s.Socket.Faults[f.Slot.Socket()]++
		s.Bank.Faults[f.Bank]++
		s.Rank.Faults[f.Rank]++
		s.Slot.Faults[f.Slot]++
		// Column attribution: word-level and column faults have a
		// defined column; bank faults touch many columns and are
		// counted at the column of their first error, matching how
		// field studies bin them.
		col := f.Col
		if col < 0 {
			if cell, _, err := topology.DecodePhysAddr(f.Node, f.Addr); err == nil && f.Addr != 0 {
				col = cell.Col
			} else if len(f.Errors) > 0 {
				col = records[f.Errors[0]].Col
			} else {
				continue
			}
		}
		s.Column.Faults[colBin(col)]++
	}
	s.Socket.finish()
	s.Bank.finish()
	s.Column.finish()
	s.Rank.finish()
	s.Slot.finish()
	return s
}

// BitAddress is the Fig 8 analysis: fault counts per cache-line bit
// position and per physical address, with power-law fits.
type BitAddress struct {
	// PerBit maps line-bit position -> number of faults anchored there.
	PerBit map[int]int
	// PerAddr maps the DIMM-local, page-granular address (the paper's
	// "address location") -> number of faults anchored there, aggregated
	// across the DIMM population. Manufacturing weak spots repeat at the
	// same device-internal location on many parts, producing the
	// collision power law of Fig 8b.
	PerAddr map[topology.PhysAddr]int
	// BitHistogram and AddrHistogram are the count -> frequency
	// transforms plotted in Fig 8.
	BitHistogram  stats.CountHistogram
	AddrHistogram stats.CountHistogram
	// BitFit and AddrFit are power-law fits to the per-location counts.
	BitFit, AddrFit       stats.PowerLawFit
	BitFitErr, AddrFitErr error
}

// AnalyzeBitAddress computes the Fig 8 distributions from word-level
// faults (bit positions are only meaningful for single-bit faults;
// addresses for single-bit and single-word faults). The fits see the
// counts sorted, not in map order, so their float sums are the same run
// to run.
func AnalyzeBitAddress(faults []Fault) BitAddress {
	out := BitAddress{PerBit: map[int]int{}, PerAddr: map[topology.PhysAddr]int{}}
	for i := range faults {
		f := &faults[i]
		if f.Mode == ModeSingleBit && f.Bit >= 0 {
			out.PerBit[f.Bit]++
		}
		if (f.Mode == ModeSingleBit || f.Mode == ModeSingleWord) && f.Addr != 0 {
			page := f.Addr.DIMMLocal() &^ topology.PhysAddr(topology.PageBytes-1)
			out.PerAddr[page]++
		}
	}
	bitCounts := make([]int, 0, len(out.PerBit))
	for _, c := range out.PerBit {
		bitCounts = append(bitCounts, c)
	}
	addrCounts := make([]int, 0, len(out.PerAddr))
	for _, c := range out.PerAddr {
		addrCounts = append(addrCounts, c)
	}
	sort.Ints(bitCounts)
	sort.Ints(addrCounts)
	out.BitHistogram = stats.NewCountHistogram(bitCounts)
	out.BitFit, out.BitFitErr = stats.FitPowerLaw(bitCounts, 1)
	out.AddrHistogram = stats.NewCountHistogram(addrCounts)
	out.AddrFit, out.AddrFitErr = stats.FitPowerLaw(addrCounts, 1)
	return out
}
