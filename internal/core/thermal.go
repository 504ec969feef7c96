package core

import "repro/internal/topology"

// RegionTemps is the §3.4 within-rack thermal-uniformity analysis the
// paper describes but omits "due to space constraints": the mean
// temperature of each rack region for each of the six sensors. On Astra
// the means agree to well under 1 °C, which is why temperature can be
// excluded as a cause of positional error trends.
type RegionTemps struct {
	// Mean[sensor][region] is the fleet mean (°C) over the environmental
	// window.
	Mean map[topology.Sensor][topology.NumRegions]float64
	// MaxSpread is the largest region-to-region difference across all
	// sensors (paper: "significantly less than 1 °C").
	MaxSpread float64
}

// AnalyzeRegionTemps computes region means over the environmental window
// for nodes [0, nodes), sampling every strideth node for speed.
func AnalyzeRegionTemps(src SensorSource, nodes, stride int) RegionTemps {
	if stride < 1 {
		stride = 1
	}
	out := RegionTemps{Mean: map[topology.Sensor][topology.NumRegions]float64{}}
	months := monthKeys()
	for _, sensor := range topology.TemperatureSensors() {
		var sums [topology.NumRegions]float64
		var counts [topology.NumRegions]int
		for n := 0; n < nodes; n += stride {
			node := topology.NodeID(n)
			for _, mk := range months {
				sums[node.Region()] += src.MonthlyMean(node, sensor, mk)
				counts[node.Region()]++
			}
		}
		var means [topology.NumRegions]float64
		lo, hi := 0.0, 0.0
		for r := range sums {
			if counts[r] == 0 {
				continue
			}
			means[r] = sums[r] / float64(counts[r])
			if r == 0 || means[r] < lo {
				lo = means[r]
			}
			if r == 0 || means[r] > hi {
				hi = means[r]
			}
		}
		out.Mean[sensor] = means
		if spread := hi - lo; spread > out.MaxSpread {
			out.MaxSpread = spread
		}
	}
	return out
}

// RackTemps is the §3.4 rack-to-rack thermal variation analysis: per-rack
// mean temperatures per sensor. The paper reports a spread under ≈4.2 °C
// across the racks, consistent with the flat per-rack fault counts of
// Fig 12b.
type RackTemps struct {
	// Mean[sensor][rack] is the rack's fleet-mean temperature.
	Mean map[topology.Sensor][]float64
	// MaxSpread is the largest rack-to-rack difference across sensors.
	MaxSpread float64
}

// AnalyzeRackTemps computes per-rack means over the environmental window.
// Racks not covered by [0, nodes) are reported as 0 and skipped in the
// spread.
func AnalyzeRackTemps(src SensorSource, nodes, stride int) RackTemps {
	if stride < 1 {
		stride = 1
	}
	out := RackTemps{Mean: map[topology.Sensor][]float64{}}
	months := monthKeys()
	// Use the first environmental month only: rack offsets are static, so
	// one month suffices and keeps full-scale runs fast.
	mk := months[0]
	for _, sensor := range topology.TemperatureSensors() {
		sums := make([]float64, topology.Racks)
		counts := make([]int, topology.Racks)
		for n := 0; n < nodes; n += stride {
			node := topology.NodeID(n)
			sums[node.Rack()] += src.MonthlyMean(node, sensor, mk)
			counts[node.Rack()]++
		}
		means := make([]float64, topology.Racks)
		first := true
		lo, hi := 0.0, 0.0
		for r := range sums {
			if counts[r] == 0 {
				continue
			}
			means[r] = sums[r] / float64(counts[r])
			if first || means[r] < lo {
				lo = means[r]
			}
			if first || means[r] > hi {
				hi = means[r]
			}
			first = false
		}
		out.Mean[sensor] = means
		if spread := hi - lo; spread > out.MaxSpread {
			out.MaxSpread = spread
		}
	}
	return out
}
