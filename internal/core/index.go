package core

import (
	"strconv"
	"time"

	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
)

// RecordIndex precomputes, in one pass, everything the per-record
// analyses used to recompute by scanning all records each: per-record month
// keys and env-window membership, per-node/structure/region/rack error
// tallies, the month totals, and the per-sensor (node, month) domain
// counts the environmental analyses share. Study.Analyze builds one index
// and hands it to the indexed analysis variants below; the free-function
// analyses stay for direct use and as the references
// TestRecordIndexMatchesDirectAnalyses compares the indexed variants
// against.
//
// An index is read-only once built, so analyses may share it across
// goroutines. The indexed variants iterate nodes in ascending order where
// the free functions ranged over Go maps, making float accumulations
// (notably stats.FitPowerLaw over per-node fault counts) bit-deterministic
// run to run.
type RecordIndex struct {
	records []mce.CERecord
	nodes   int

	// Per-record precomputation (indexed by record position).
	monthOf []int32
	inEnv   []bool

	// Aggregates over all records.
	minTime, maxTime time.Time
	monthCounts      map[int]int
	perNodeErrors    []int
	socketErrors     [2]int
	bankErrors       [topology.BanksPerRank]int
	columnErrors     [ColumnBins]int
	rankErrors       [2]int
	slotErrors       [topology.SlotsPerNode]int
	regionErrors     [topology.NumRegions]int
	rackErrors       []int

	// Environmental-window precomputation.
	envMonths []int
	// domain[sensor] counts the in-window CEs per (node, month) inside the
	// sensor's domain (the covered slots for DIMM sensors, the socket's
	// DIMMs for CPU sensors) — what sensorDomainErrors computed per call.
	domain map[topology.Sensor]map[[2]int]int
}

// IndexRecords scans records once and returns the shared index.
// totalNodes bounds the node range, as in AnalyzePerNode.
func IndexRecords(records []mce.CERecord, totalNodes int) *RecordIndex {
	ix := &RecordIndex{
		records:       records,
		nodes:         totalNodes,
		monthOf:       make([]int32, len(records)),
		inEnv:         make([]bool, len(records)),
		monthCounts:   map[int]int{},
		perNodeErrors: make([]int, totalNodes),
		rackErrors:    make([]int, topology.Racks),
		envMonths:     monthKeys(),
		domain:        map[topology.Sensor]map[[2]int]int{},
	}
	// CPU sensor per socket (the non-DIMM temperature sensors).
	var cpuSensor [2]topology.Sensor
	for _, s := range topology.TemperatureSensors() {
		ix.domain[s] = map[[2]int]int{}
		if !s.IsDIMM() {
			cpuSensor[s.Socket()] = s
		}
	}
	if len(records) == 0 {
		return ix
	}

	ix.minTime, ix.maxTime = records[0].Time, records[0].Time
	colBin := func(col int) int { return col * ColumnBins / topology.ColsPerRow }
	for i := range records {
		r := &records[i]
		if r.Time.Before(ix.minTime) {
			ix.minTime = r.Time
		}
		if r.Time.After(ix.maxTime) {
			ix.maxTime = r.Time
		}
		mk := simtime.MonthKey(r.Time)
		ix.monthOf[i] = int32(mk)
		ix.monthCounts[mk]++
		if int(r.Node) < totalNodes {
			ix.perNodeErrors[r.Node]++
		}
		ix.socketErrors[r.Socket]++
		ix.bankErrors[r.Bank]++
		ix.columnErrors[colBin(r.Col)]++
		ix.rankErrors[r.Rank]++
		ix.slotErrors[r.Slot]++
		ix.regionErrors[r.Node.Region()]++
		ix.rackErrors[r.Node.Rack()]++
		if inEnvWindow(*r) {
			ix.inEnv[i] = true
			key := [2]int{int(r.Node), mk}
			ix.domain[topology.SensorForSlot(r.Slot)][key]++
			ix.domain[cpuSensor[r.Socket]][key]++
		}
	}
	return ix
}

// BreakdownByMode is the indexed BreakdownByMode: month totals and each
// error's month come from the index.
func (ix *RecordIndex) BreakdownByMode(faults []Fault) ModeBreakdown {
	var b ModeBreakdown
	if len(ix.records) == 0 {
		b.Degraded = true
		return b
	}
	startKey := simtime.MonthKey(ix.minTime)
	endKey := simtime.MonthKey(ix.maxTime)
	n := endKey - startKey + 1
	b.Months = make([]int, n)
	for i := range b.Months {
		b.Months[i] = startKey + i
	}
	b.AllErrors = make([]int, n)
	for mk, c := range ix.monthCounts {
		b.AllErrors[mk-startKey] += c
	}
	b.Total = len(ix.records)
	for m := range b.ByMode {
		b.ByMode[m] = make([]int, n)
	}

	for i := range faults {
		f := &faults[i]
		b.FaultsByMode[f.Mode]++
		b.ErrorsByMode[f.Mode] += f.NErrors
		series := b.ByMode[f.Mode]
		for _, idx := range f.Errors {
			series[int(ix.monthOf[idx])-startKey]++
		}
	}
	return b
}

// AnalyzePerNode is the indexed AnalyzePerNode. Per-node error counts come
// from the index, and both count vectors are assembled in ascending node
// order, so the power-law fit no longer depends on map iteration order.
func (ix *RecordIndex) AnalyzePerNode(faults []Fault) PerNode {
	out := PerNode{
		Errors:   map[topology.NodeID]int{},
		Faults:   map[topology.NodeID]int{},
		Degraded: len(ix.records) == 0 || ix.nodes <= 0,
	}
	perNode := make([]float64, 0, len(ix.records)/64+8)
	for n, c := range ix.perNodeErrors {
		if c > 0 {
			out.Errors[topology.NodeID(n)] = c
			perNode = append(perNode, float64(c))
		}
	}
	perNodeFaults := make([]int, ix.nodes)
	for i := range faults {
		f := &faults[i]
		out.Faults[f.Node]++
		if int(f.Node) < ix.nodes {
			perNodeFaults[f.Node]++
		}
	}
	out.NodesWithErrors = len(out.Errors)
	out.TopShare8 = stats.TopShare(perNode, 8)
	out.TopShare2Pct = stats.TopShare(perNode, ix.nodes*2/100)
	out.Lorenz = stats.LorenzCurve(perNode)
	var faultCounts []int
	for _, c := range perNodeFaults {
		if c > 0 {
			faultCounts = append(faultCounts, c)
		}
	}
	out.FaultHistogram = stats.NewCountHistogram(faultCounts)
	out.PowerLaw, out.PowerLawErr = stats.FitPowerLaw(faultCounts, 1)
	return out
}

// AnalyzeStructures is the indexed AnalyzeStructures: the error tallies
// come from the index, the (cheap) fault loop is unchanged.
func (ix *RecordIndex) AnalyzeStructures(faults []Fault) Structures {
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

	copy(s.Socket.Errors, ix.socketErrors[:])
	copy(s.Bank.Errors, ix.bankErrors[:])
	copy(s.Column.Errors, ix.columnErrors[:])
	copy(s.Rank.Errors, ix.rankErrors[:])
	copy(s.Slot.Errors, ix.slotErrors[:])

	colBin := func(col int) int { return col * ColumnBins / topology.ColsPerRow }
	for _, f := range faults {
		s.Socket.Faults[f.Slot.Socket()]++
		s.Bank.Faults[f.Bank]++
		s.Rank.Faults[f.Rank]++
		s.Slot.Faults[f.Slot]++
		col := f.Col
		if col < 0 {
			if cell, _, err := topology.DecodePhysAddr(f.Node, f.Addr); err == nil && f.Addr != 0 {
				col = cell.Col
			} else if len(f.Errors) > 0 {
				col = ix.records[f.Errors[0]].Col
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

// AnalyzePositional is the indexed AnalyzePositional: region and rack
// error tallies come from the index, the fault loop is unchanged.
func (ix *RecordIndex) AnalyzePositional(faults []Fault) Positional {
	p := Positional{
		RackErrors:        make([]int, topology.Racks),
		RackFaults:        make([]int, topology.Racks),
		RegionShareByRack: make([][topology.NumRegions]float64, topology.Racks),
	}
	copy(p.RegionErrors[:], ix.regionErrors[:])
	copy(p.RackErrors, ix.rackErrors)
	rackRegionFaults := make([][topology.NumRegions]int, topology.Racks)
	faultyNodes := map[topology.NodeID]bool{}
	for _, f := range faults {
		reg := f.Region()
		rack := f.Node.Rack()
		p.RegionFaults[reg]++
		p.RackFaults[rack]++
		rackRegionFaults[rack][reg]++
		if !faultyNodes[f.Node] {
			faultyNodes[f.Node] = true
			p.RegionFaultyNodes[reg]++
		}
	}
	for rack, counts := range rackRegionFaults {
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue
		}
		for reg, c := range counts {
			p.RegionShareByRack[rack][reg] = float64(c) / float64(total)
		}
	}
	if cs, err := stats.ChiSquareUniform(p.RegionFaults[:]); err == nil {
		p.RegionFaultChi2 = cs
	}
	if cs, err := stats.ChiSquareUniform(p.RegionFaultyNodes[:]); err == nil {
		p.RegionNodeChi2 = cs
	}
	if cs, err := stats.ChiSquareUniform(p.RackFaults); err == nil {
		p.RackFaultChi2 = cs
	}
	best, second := -1, -1
	for rack, c := range p.RackErrors {
		if best < 0 || c > p.RackErrors[best] {
			second = best
			best = rack
		} else if second < 0 || c > p.RackErrors[second] {
			second = rack
		}
	}
	p.MaxErrorRack = best
	if best >= 0 && second >= 0 && p.RackErrors[second] > 0 {
		p.MaxRackErrorRatio = float64(p.RackErrors[best]) / float64(p.RackErrors[second])
	}
	return p
}

// AnalyzeTempWindows is the indexed AnalyzeTempWindows: one
// AnalyzeTempWindow per averaging window, in order.
func (ix *RecordIndex) AnalyzeTempWindows(src SensorSource, windows []int64) []TempWindow {
	out := make([]TempWindow, 0, len(windows))
	for _, w := range windows {
		out = append(out, ix.AnalyzeTempWindow(src, w))
	}
	return out
}

// AnalyzeTempWindow bins the in-window records by their DIMM sensor's
// mean over the w minutes before each error (the expensive MeanBefore
// lookups) and fits the Fig 9 trend; env-window membership comes from
// the index.
func (ix *RecordIndex) AnalyzeTempWindow(src SensorSource, w int64) TempWindow {
	const binLo, binHi = 20.0, 70.0
	nBins := int(binHi - binLo)
	tw := TempWindow{WindowMinutes: w, BinLo: binLo, Counts: make([]int, nBins)}
	for i := range ix.records {
		if !ix.inEnv[i] {
			continue
		}
		r := &ix.records[i]
		sensor := topology.SensorForSlot(r.Slot)
		mean := src.MeanBefore(r.Node, sensor, simtime.MinuteOf(r.Time), w)
		bin := int(mean - binLo)
		if bin < 0 || bin >= nBins {
			continue
		}
		tw.Counts[bin]++
	}
	var xs, ys []float64
	for i, c := range tw.Counts {
		if c == 0 {
			continue
		}
		xs = append(xs, binLo+float64(i)+0.5)
		ys = append(ys, float64(c))
	}
	tw.Fit, tw.FitErr = stats.FitLinear(xs, ys)
	return tw
}

// AnalyzeTempDeciles is the indexed AnalyzeTempDeciles: domain counts and
// months come from the index.
func (ix *RecordIndex) AnalyzeTempDeciles(src SensorSource) []DecilePanel {
	months := ix.envMonths
	sensors := topology.TemperatureSensors()
	out := make([]DecilePanel, len(sensors))
	for si, sensor := range sensors {
		domain := ix.domain[sensor]
		keys := make([]float64, ix.nodes*len(months))
		vals := make([]float64, ix.nodes*len(months))
		for n := 0; n < ix.nodes; n++ {
			for j, mk := range months {
				keys[n*len(months)+j] = src.MonthlyMean(topology.NodeID(n), sensor, mk)
				vals[n*len(months)+j] = float64(domain[[2]int{n, mk}])
			}
		}
		out[si] = DecilePanel{Sensor: sensor}
		bins, err := stats.Deciles(keys, vals)
		if err != nil {
			continue
		}
		out[si].Bins = bins
		out[si].Spread = stats.DecileSpread(bins)
		out[si].Trend, out[si].TrendErr = stats.TrendVerdict(bins)
	}
	return out
}

// AnalyzeUtilization is the indexed AnalyzeUtilization: domain counts and
// months come from the index, as in AnalyzeTempDeciles.
func (ix *RecordIndex) AnalyzeUtilization(src SensorSource) []UtilizationPanel {
	months := ix.envMonths
	sensors := topology.TemperatureSensors()
	out := make([]UtilizationPanel, len(sensors))
	for si, sensor := range sensors {
		domain := ix.domain[sensor]
		grid := ix.nodes * len(months)
		temps := make([]float64, grid)
		powers := make([]float64, grid)
		errsCounts := make([]float64, grid)
		for n := 0; n < ix.nodes; n++ {
			for j, mk := range months {
				i := n*len(months) + j
				temps[i] = src.MonthlyMean(topology.NodeID(n), sensor, mk)
				powers[i] = src.MonthlyMean(topology.NodeID(n), topology.SensorDCPower, mk)
				errsCounts[i] = float64(domain[[2]int{n, mk}])
			}
		}
		med := stats.Median(temps)
		var hotP, hotE, coldP, coldE []float64
		for i, tv := range temps {
			if tv > med {
				hotP = append(hotP, powers[i])
				hotE = append(hotE, errsCounts[i])
			} else {
				coldP = append(coldP, powers[i])
				coldE = append(coldE, errsCounts[i])
			}
		}
		panel := UtilizationPanel{
			Sensor:        sensor,
			HotPowerMean:  stats.Mean(hotP),
			ColdPowerMean: stats.Mean(coldP),
		}
		if bins, err := stats.Deciles(hotP, hotE); err == nil {
			panel.Hot = bins
			panel.HotTrend, panel.HotTrendErr = stats.TrendVerdict(bins)
		}
		if bins, err := stats.Deciles(coldP, coldE); err == nil {
			panel.Cold = bins
			panel.ColdTrend, panel.ColdTrendErr = stats.TrendVerdict(bins)
		}
		out[si] = panel
	}
	return out
}
