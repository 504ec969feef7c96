package core

import (
	"time"

	"repro/internal/het"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Uncorrectable is the §3.5 / Fig 15 analysis of Hardware Event Tracker
// records.
type Uncorrectable struct {
	// First and Last bound the observed HET records; the paper's analysis
	// window opens at the firmware update (Aug 23, 2019).
	First, Last time.Time
	// DailyByType[t] maps day index -> count for each event type
	// (Fig 15a).
	DailyByType [het.NumEventTypes]map[simtime.Day]int
	// DailyNonRecoverable maps day -> NON-RECOVERABLE count (Fig 15b).
	DailyNonRecoverable map[simtime.Day]int
	// DUEs is the number of memory DUE records (uncorrectableECC +
	// uncorrectableMachineCheckException).
	DUEs int
	// DUEsPerDIMMYear is the §3.5 rate (paper: 0.00948).
	DUEsPerDIMMYear float64
	// FITPerDIMM is the failures-in-time rate per DIMM (paper: ≈1081).
	FITPerDIMM float64
}

// AnalyzeUncorrectable computes the Fig 15 series and FIT rate from HET
// records. dimms is the DIMM population (41472 on the full system); the
// observation window runs from the firmware gate to windowEnd.
func AnalyzeUncorrectable(records []het.Record, dimms int, windowEnd time.Time) Uncorrectable {
	u := Uncorrectable{DailyNonRecoverable: map[simtime.Day]int{}}
	for i := range u.DailyByType {
		u.DailyByType[i] = map[simtime.Day]int{}
	}
	for _, r := range records {
		if !r.Recorded() || r.Time.After(windowEnd) {
			continue
		}
		if u.First.IsZero() || r.Time.Before(u.First) {
			u.First = r.Time
		}
		if r.Time.After(u.Last) {
			u.Last = r.Time
		}
		day := simtime.DayOf(r.Time)
		u.DailyByType[r.Type][day]++
		if r.Severity == het.SeverityNonRecoverable {
			u.DailyNonRecoverable[day]++
		}
		if r.Type == het.UncorrectableECC || r.Type == het.UncorrectableMCE {
			u.DUEs++
		}
	}
	window := windowEnd.Sub(simtime.HETStart)
	if window > 0 && dimms > 0 {
		years := window.Hours() / simtime.HoursPerYear
		u.DUEsPerDIMMYear = float64(u.DUEs) / float64(dimms) / years
		u.FITPerDIMM = FIT(u.DUEsPerDIMMYear)
	}
	return u
}

// FIT converts a per-device-per-year failure rate to failures per 1e9
// device-hours (the rate unit used in §3.5: 0.00948 DUEs/DIMM-year ⇒
// FIT ≈ 1081).
func FIT(perDeviceYear float64) float64 {
	return perDeviceYear / simtime.HoursPerYear * 1e9
}

// DefaultDIMMs is the full-system DIMM population.
const DefaultDIMMs = topology.DIMMs
