package core

import (
	"sort"

	"repro/internal/mce"
)

// SanitizeReport accounts for what SanitizeRecords changed.
type SanitizeReport struct {
	// In and Out are the record counts before and after sanitizing.
	In, Out int
	// WasUnsorted reports that the input was not time-ordered (the sort
	// repaired it).
	WasUnsorted bool
	// DuplicatesRemoved counts exact-duplicate records collapsed to one.
	DuplicatesRemoved int
}

// Changed reports whether sanitizing altered the input at all.
func (r SanitizeReport) Changed() bool {
	return r.WasUnsorted || r.DuplicatesRemoved > 0
}

// TimeOrdered reports whether records are in non-decreasing time order,
// the order the temporal analyses assume.
func TimeOrdered(records []mce.CERecord) bool {
	for i := 1; i < len(records); i++ {
		if records[i].Time.Before(records[i-1].Time) {
			return false
		}
	}
	return true
}

// SanitizeRecords prepares externally-ingested CE records for analysis:
// it time-orders them and collapses exact duplicates (every field equal),
// reporting what it changed. The clusterer itself is order-insensitive,
// but the temporal analyses assume time order, and relay-duplicated
// records would inflate error counts.
//
// It is deliberately NOT applied to generator output: identical records
// are legitimate there (a burst hammering one cell within one second),
// and the calibration tests depend on exact counts. Use it on parsed
// external telemetry, where a byte-identical record is overwhelmingly a
// relay artifact.
func SanitizeRecords(records []mce.CERecord) ([]mce.CERecord, SanitizeReport) {
	rep := SanitizeReport{In: len(records)}
	if len(records) == 0 {
		return nil, rep
	}
	rep.WasUnsorted = !TimeOrdered(records)
	out := make([]mce.CERecord, len(records))
	copy(out, records)
	// Total order (time first, then every locating field) makes exact
	// duplicates adjacent and the result deterministic.
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if !x.Time.Equal(y.Time) {
			return x.Time.Before(y.Time)
		}
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Addr != y.Addr {
			return x.Addr < y.Addr
		}
		return x.BitPos < y.BitPos
	})
	dst := 1
	for i := 1; i < len(out); i++ {
		if out[i] == out[dst-1] {
			rep.DuplicatesRemoved++
			continue
		}
		out[dst] = out[i]
		dst++
	}
	out = out[:dst]
	rep.Out = len(out)
	return out, rep
}
