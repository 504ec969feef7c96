package core

import (
	"math"
	"testing"

	"repro/internal/envmodel"
	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func TestBreakdownByMode(t *testing.T) {
	_, records := generateSmall(t, 31, 400)
	faults := mustCluster(records, DefaultClusterConfig())
	b := BreakdownByMode(records, faults)
	if b.Total != len(records) {
		t.Errorf("Total = %d, want %d", b.Total, len(records))
	}
	// Monthly totals sum to the overall total.
	sum := 0
	for _, c := range b.AllErrors {
		sum += c
	}
	if sum != b.Total {
		t.Errorf("monthly sums = %d, want %d", sum, b.Total)
	}
	// Every error belongs to a fault, so mode series also sum to total.
	modeSum := 0
	for m := range b.ByMode {
		for _, c := range b.ByMode[m] {
			modeSum += c
		}
	}
	if modeSum != b.Total {
		t.Errorf("mode sums = %d, want %d", modeSum, b.Total)
	}
	// Single-bit faults dominate the fault mix (Fig 4a).
	if b.FaultsByMode[ModeSingleBit] <= b.FaultsByMode[ModeSingleBank] {
		t.Errorf("fault mix implausible: %+v", b.FaultsByMode)
	}
	// Default config must never yield single-row (platform limitation).
	if b.FaultsByMode[ModeSingleRow] != 0 {
		t.Errorf("single-row faults without row ablation: %d", b.FaultsByMode[ModeSingleRow])
	}
	// Study months span Jan-Sep 2019.
	if len(b.Months) < 8 || simtime.MonthLabel(b.Months[0]) != "2019-01" {
		t.Errorf("months = %v", b.Months)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := BreakdownByMode(nil, nil)
	if b.Total != 0 || len(b.Months) != 0 {
		t.Errorf("empty breakdown = %+v", b)
	}
}

func TestErrorsPerFaultDist(t *testing.T) {
	_, records := generateSmall(t, 32, 400)
	faults := mustCluster(records, DefaultClusterConfig())
	d := ErrorsPerFaultDist(faults)
	if d.Median != 1 {
		t.Errorf("median errors/fault = %v, want 1 (Fig 4b)", d.Median)
	}
	if d.Max < 5000 {
		t.Errorf("max errors/fault = %d, expected a heavy hitter", d.Max)
	}
	if d.Mean < 10 {
		t.Errorf("mean errors/fault = %v", d.Mean)
	}
	if len(d.Counts) != len(faults) {
		t.Errorf("counts length %d != faults %d", len(d.Counts), len(faults))
	}
}

func TestAnalyzePerNode(t *testing.T) {
	_, records := generateSmall(t, 33, 400)
	faults := mustCluster(records, DefaultClusterConfig())
	pn := AnalyzePerNode(records, faults, 400)
	if pn.NodesWithErrors == 0 || pn.NodesWithErrors > 400 {
		t.Fatalf("NodesWithErrors = %d", pn.NodesWithErrors)
	}
	// ~39% of nodes see errors.
	frac := float64(pn.NodesWithErrors) / 400
	if frac < 0.25 || frac > 0.55 {
		t.Errorf("fraction of nodes with errors = %v, want ~0.39", frac)
	}
	if pn.TopShare8 <= 0 || pn.TopShare8 > 1 {
		t.Errorf("TopShare8 = %v", pn.TopShare8)
	}
	if pn.TopShare2Pct < pn.TopShare8 {
		t.Errorf("top-2%% (%v) < top-8 (%v) with 400 nodes", pn.TopShare2Pct, pn.TopShare8)
	}
	if last := pn.Lorenz[len(pn.Lorenz)-1]; math.Abs(last-1) > 1e-9 {
		t.Errorf("Lorenz end = %v", last)
	}
	if pn.PowerLawErr != nil {
		t.Errorf("power-law fit failed: %v", pn.PowerLawErr)
	} else if pn.PowerLaw.Alpha < 1.1 || pn.PowerLaw.Alpha > 3.5 {
		t.Errorf("node fault alpha = %v", pn.PowerLaw.Alpha)
	}
	// Histogram totals match the number of faulty nodes.
	histTotal := 0
	for _, n := range pn.FaultHistogram {
		histTotal += n
	}
	if histTotal != len(pn.Faults) {
		t.Errorf("histogram covers %d nodes, want %d", histTotal, len(pn.Faults))
	}
}

func TestAnalyzeStructures(t *testing.T) {
	_, records := generateSmall(t, 34, 600)
	faults := mustCluster(records, DefaultClusterConfig())
	s := AnalyzeStructures(records, faults)

	sumInts := func(xs []int) int {
		total := 0
		for _, x := range xs {
			total += x
		}
		return total
	}
	for name, sc := range map[string]StructureCounts{
		"socket": s.Socket, "bank": s.Bank, "rank": s.Rank, "slot": s.Slot, "column": s.Column,
	} {
		if got := sumInts(sc.Errors); got != len(records) {
			t.Errorf("%s errors sum = %d, want %d", name, got, len(records))
		}
	}
	for name, sc := range map[string]StructureCounts{
		"socket": s.Socket, "bank": s.Bank, "rank": s.Rank, "slot": s.Slot,
	} {
		if got := sumInts(sc.Faults); got != len(faults) {
			t.Errorf("%s faults sum = %d, want %d", name, got, len(faults))
		}
	}
	// Fault distributions: socket and bank uniform (χ² does not reject at
	// 1%), rank and slot skewed.
	if s.Socket.FaultChi2.PValue < 0.01 {
		t.Errorf("socket faults rejected as uniform: %+v", s.Socket.FaultChi2)
	}
	if s.Bank.FaultChi2.PValue < 0.001 {
		t.Errorf("bank faults rejected as uniform: %+v", s.Bank.FaultChi2)
	}
	if s.Rank.Faults[0] <= s.Rank.Faults[1] {
		t.Errorf("rank 0 faults should dominate: %v", s.Rank.Faults)
	}
	if s.Slot.FaultChi2.PValue > 0.01 {
		t.Errorf("slot faults should be non-uniform: %+v", s.Slot.FaultChi2)
	}
	// Errors-vs-faults divergence: the error vector should be wildly less
	// uniform than the fault vector on the socket dimension whenever a
	// pathological node dominates one socket (the paper's core point).
	if s.Socket.ErrorChi2.Statistic < s.Socket.FaultChi2.Statistic {
		t.Logf("note: socket errors less skewed than faults in this draw")
	}
}

func TestAnalyzeBitAddress(t *testing.T) {
	_, records := generateSmall(t, 35, 600)
	faults := mustCluster(records, DefaultClusterConfig())
	ba := AnalyzeBitAddress(faults)
	if len(ba.PerBit) == 0 || len(ba.PerAddr) == 0 {
		t.Fatal("empty bit/address maps")
	}
	for bit := range ba.PerBit {
		if bit < 0 || bit > topology.MaxLineBitPosition {
			t.Fatalf("bit position %d out of range", bit)
		}
	}
	if ba.BitFitErr != nil {
		t.Errorf("bit fit failed: %v", ba.BitFitErr)
	}
	if ba.AddrFitErr != nil {
		t.Errorf("addr fit failed: %v", ba.AddrFitErr)
	}
	// Most addresses host exactly one fault; a few host more (Fig 8b).
	if ba.AddrHistogram[1] == 0 {
		t.Error("no single-fault addresses")
	}
}

func TestAnalyzePositional(t *testing.T) {
	_, records := generateSmall(t, 36, 600)
	faults := mustCluster(records, DefaultClusterConfig())
	p := AnalyzePositional(records, faults)
	sumErr := 0
	for _, c := range p.RegionErrors {
		sumErr += c
	}
	if sumErr != len(records) {
		t.Errorf("region errors sum = %d, want %d", sumErr, len(records))
	}
	sumRack := 0
	for _, c := range p.RackErrors {
		sumRack += c
	}
	if sumRack != len(records) {
		t.Errorf("rack errors sum = %d, want %d", sumRack, len(records))
	}
	sumFaults := 0
	for _, c := range p.RegionFaults {
		sumFaults += c
	}
	if sumFaults != len(faults) {
		t.Errorf("region faults sum = %d, want %d", sumFaults, len(faults))
	}
	// Region shares per rack sum to 1 (or 0 for fault-free racks).
	for rack, shares := range p.RegionShareByRack {
		total := shares[0] + shares[1] + shares[2]
		if total != 0 && math.Abs(total-1) > 1e-9 {
			t.Errorf("rack %d shares sum to %v", rack, total)
		}
	}
	if p.MaxErrorRack < 0 || p.MaxErrorRack >= topology.Racks {
		t.Errorf("MaxErrorRack = %d", p.MaxErrorRack)
	}
	if p.MaxRackErrorRatio < 1 {
		t.Errorf("MaxRackErrorRatio = %v", p.MaxRackErrorRatio)
	}
}

// envRecords filters records to the environmental window.
func envRecords(records []mce.CERecord) []mce.CERecord {
	var out []mce.CERecord
	for _, r := range records {
		if inEnvWindow(r) {
			out = append(out, r)
		}
	}
	return out
}

func TestAnalyzeTempWindowsFlatOnAstraTruth(t *testing.T) {
	_, records := generateSmall(t, 37, 600)
	env := envmodel.New(37, envmodel.DefaultParams())
	windows := AnalyzeTempWindows(envRecords(records), env, Fig9Windows)
	if len(windows) != 4 {
		t.Fatalf("got %d windows", len(windows))
	}
	for _, w := range windows {
		total := 0
		for _, c := range w.Counts {
			total += c
		}
		if total == 0 {
			t.Fatalf("window %d: no errors binned", w.WindowMinutes)
		}
		if w.FitErr != nil {
			t.Fatalf("window %d: fit failed: %v", w.WindowMinutes, w.FitErr)
		}
	}
}

func TestAnalyzeTempDecilesAstraTruth(t *testing.T) {
	_, records := generateSmall(t, 38, 600)
	env := envmodel.New(38, envmodel.DefaultParams())
	panels := AnalyzeTempDeciles(envRecords(records), env, 600)
	if len(panels) != 6 {
		t.Fatalf("got %d panels, want 6", len(panels))
	}
	for _, p := range panels {
		if len(p.Bins) != 10 {
			t.Fatalf("panel %v: %d bins", p.Sensor, len(p.Bins))
		}
		// Decile spreads: CPUs wider than DIMMs; sane magnitudes.
		if p.Sensor == topology.SensorCPU1 || p.Sensor == topology.SensorCPU2 {
			if p.Spread < 3 || p.Spread > 14 {
				t.Errorf("CPU decile spread = %v", p.Spread)
			}
		} else if p.Spread < 1 || p.Spread > 9 {
			t.Errorf("DIMM decile spread = %v", p.Spread)
		}
	}
}

func TestAnalyzeUtilizationAstraTruth(t *testing.T) {
	_, records := generateSmall(t, 39, 600)
	env := envmodel.New(39, envmodel.DefaultParams())
	panels := AnalyzeUtilization(envRecords(records), env, 600)
	if len(panels) != 6 {
		t.Fatalf("got %d panels", len(panels))
	}
	for _, p := range panels {
		// Hot samples sit at higher power (shared utilization driver).
		if p.HotPowerMean <= p.ColdPowerMean {
			t.Errorf("%v: hot power %v <= cold power %v", p.Sensor, p.HotPowerMean, p.ColdPowerMean)
		}
	}
}

func TestTrendStrengthAndDescribe(t *testing.T) {
	_, records := generateSmall(t, 40, 400)
	env := envmodel.New(40, envmodel.DefaultParams())
	panels := AnalyzeTempDeciles(envRecords(records), env, 400)
	for _, p := range panels {
		if p.TrendErr != nil {
			continue
		}
		s := TrendStrength(p.Trend, p.Bins)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Errorf("%v: trend strength %v", p.Sensor, s)
		}
		if DescribeTrend(p.Trend, p.Bins) == "" {
			t.Error("empty trend description")
		}
	}
	if TrendStrength(panels[0].Trend, nil) != 0 {
		t.Error("TrendStrength(nil bins) != 0")
	}
}

func TestAnalyzeUncorrectable(t *testing.T) {
	cfg := faultmodel.DefaultConfig(41)
	pop, err := faultmodel.Generate(testCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := mce.NewEncoder(41)
	var hetRecs []het.Record
	for _, d := range pop.DUEs {
		hetRecs = append(hetRecs, het.FromDUE(mustEncodeDUE(enc, d)))
	}
	ambient, err := het.GenerateAmbient(testCtx, 41, simtime.HETStart, simtime.StudyEnd, topology.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	hetRecs = het.Merge(hetRecs, ambient)
	u := AnalyzeUncorrectable(hetRecs, topology.DIMMs, simtime.StudyEnd)
	if u.DUEs == 0 {
		t.Fatal("no DUEs in the HET window")
	}
	// The generated rate is 0.00948/DIMM-year; the windowed estimate is
	// noisy (expectation ~24 events) but must be the right order.
	if u.DUEsPerDIMMYear < 0.002 || u.DUEsPerDIMMYear > 0.03 {
		t.Errorf("DUEsPerDIMMYear = %v, want ~0.00948", u.DUEsPerDIMMYear)
	}
	if u.FITPerDIMM < 200 || u.FITPerDIMM > 4000 {
		t.Errorf("FIT = %v, want ~1081", u.FITPerDIMM)
	}
	if u.First.Before(simtime.HETStart) {
		t.Errorf("First = %v precedes the firmware gate", u.First)
	}
	// Daily series cover multiple event types.
	nonEmpty := 0
	for _, daily := range u.DailyByType {
		if len(daily) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Errorf("only %d event types appear in the dailies", nonEmpty)
	}
}

func TestFITConversion(t *testing.T) {
	// The paper: 0.00948 DUEs/DIMM/year => FIT ~= 1081.
	if got := FIT(0.00948); math.Abs(got-1081) > 5 {
		t.Errorf("FIT(0.00948) = %v, want ~1081", got)
	}
}
