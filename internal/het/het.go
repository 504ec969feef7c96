// Package het models the Hardware Event Tracker (§3.5): the firmware
// facility that records uncorrectable errors and platform health events to
// the syslog. Two properties matter to the reproduction:
//
//   - the firmware gate: no HET records exist before the August 2019
//     firmware update (2019-08-23), which bounds the window over which the
//     paper can estimate the DUE rate (0.00948 per DIMM-year, FIT ≈ 1081);
//   - the event taxonomy of Fig 15, which mixes memory DUEs with
//     power-supply and sensor-threshold events.
package het

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/mce"
	"repro/internal/parallel"
	"repro/internal/simrand"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// EventType enumerates the HET event taxonomy of Fig 15a. The misspelling
// "redundacy" is preserved from the paper's figures (and, presumably, the
// firmware).
type EventType int

// HET event types.
const (
	RedundancyLost EventType = iota
	UCGoingHigh
	PowerSupplyFailureDeasserted
	UNRGoingHigh
	UncorrectableECC
	PowerSupplyFailure
	UncorrectableMCE
	RedundancyInsufficient
	// NumEventTypes is the number of event types.
	NumEventTypes
)

var eventNames = [NumEventTypes]string{
	RedundancyLost:               "redundacyLost",
	UCGoingHigh:                  "ucGoingHigh",
	PowerSupplyFailureDeasserted: "powerSupplyFailureDetectedDeasserted",
	UNRGoingHigh:                 "unrGoingHigh",
	UncorrectableECC:             "uncorrectableECC",
	PowerSupplyFailure:           "powerSupplyFailureDetected",
	UncorrectableMCE:             "uncorrectableMachineCheckException",
	RedundancyInsufficient:       "redundacyNeInsufficientResources",
}

// String returns the wire name of the event type.
func (t EventType) String() string {
	if t < 0 || t >= NumEventTypes {
		return fmt.Sprintf("EventType(%d)", int(t))
	}
	return eventNames[t]
}

// ParseEventTypeBytes parses a wire name from raw bytes without allocating
// (the string conversions below compile to allocation-free comparisons).
func ParseEventTypeBytes(b []byte) (EventType, error) {
	for t := EventType(0); t < NumEventTypes; t++ {
		if string(b) == eventNames[t] {
			return t, nil
		}
	}
	return 0, fmt.Errorf("het: unknown event type %q", b)
}

// Severity of a HET record.
type Severity int

// Severities, mirroring the paper's "NON-RECOVERABLE" classification.
const (
	SeverityInfo Severity = iota
	SeverityWarning
	SeverityCritical
	SeverityNonRecoverable
	// NumSeverities is the number of severities.
	NumSeverities
)

var severityNames = [NumSeverities]string{
	SeverityInfo:           "INFO",
	SeverityWarning:        "WARNING",
	SeverityCritical:       "CRITICAL",
	SeverityNonRecoverable: "NON-RECOVERABLE",
}

// String returns the wire name of the severity.
func (s Severity) String() string {
	if s < 0 || s >= NumSeverities {
		return fmt.Sprintf("Severity(%d)", int(s))
	}
	return severityNames[s]
}

// ParseSeverityBytes parses a wire name from raw bytes without allocating.
func ParseSeverityBytes(b []byte) (Severity, error) {
	for s := Severity(0); s < NumSeverities; s++ {
		if string(b) == severityNames[s] {
			return s, nil
		}
	}
	return 0, fmt.Errorf("het: unknown severity %q", b)
}

// SeverityOf returns the severity the firmware assigns to an event type.
func SeverityOf(t EventType) Severity {
	switch t {
	case UncorrectableECC, UncorrectableMCE:
		return SeverityNonRecoverable
	case PowerSupplyFailure, RedundancyLost:
		return SeverityCritical
	case PowerSupplyFailureDeasserted:
		return SeverityInfo
	default:
		return SeverityWarning
	}
}

// Record is one HET syslog record.
type Record struct {
	Time     time.Time
	Node     topology.NodeID
	Type     EventType
	Severity Severity
	// Addr is the affected address for memory events, 0 otherwise.
	Addr topology.PhysAddr
}

// Recorded reports whether the firmware would have written the record at
// all: nothing is recorded before the firmware gate.
func (r Record) Recorded() bool { return !r.Time.Before(simtime.HETStart) }

// FromDUE converts a machine-check DUE record into its HET form.
func FromDUE(d mce.DUERecord) Record {
	t := UncorrectableECC
	if d.Fatal {
		t = UncorrectableMCE
	}
	return Record{Time: d.Time, Node: d.Node, Type: t, Severity: SeverityNonRecoverable, Addr: d.Addr}
}

// ambientRates are system-wide daily event rates for the non-memory HET
// types, calibrated so daily counts resemble Fig 15a (a few to ~25 per
// day, with power-supply events arriving in assert/de-assert pairs).
var ambientRates = map[EventType]float64{
	RedundancyLost:         1.6,
	UCGoingHigh:            2.4,
	UNRGoingHigh:           0.8,
	PowerSupplyFailure:     0.9,
	RedundancyInsufficient: 0.5,
}

// GenerateAmbient produces the non-memory HET event stream over
// [start, end) across nodes [0, nodes), in time order. Days drawn as
// "burst days" (a failing PSU shelf being serviced) multiply rates by
// burstFactor, reproducing the spiky daily counts of Fig 15a. Events
// before the firmware gate are suppressed. Every day draws from its own
// derived stream. Cancelling ctx aborts with its error.
func GenerateAmbient(ctx context.Context, seed uint64, start, end time.Time, nodes int) ([]Record, error) {
	rng := simrand.NewStream(seed).Derive("het-ambient")
	var out []Record
	for d, day := 0, simtime.DayOf(start); day.Time().Before(end); d, day = d+1, day+1 {
		if err := parallel.Poll(ctx, d); err != nil {
			return nil, err
		}
		out = appendAmbientDay(out, rng, day, end, nodes)
	}
	sortRecords(out)
	return out, nil
}

// appendAmbientDay appends one day's ambient events, drawn from the day's
// derived stream, to out.
func appendAmbientDay(out []Record, rng *simrand.Stream, day simtime.Day, end time.Time, nodes int) []Record {
	const (
		burstProb   = 0.06
		burstFactor = 8
	)
	ds := rng.DeriveN("day", uint64(day))
	factor := 1.0
	if ds.Bool(burstProb) {
		factor = burstFactor
	}
	for t := EventType(0); t < NumEventTypes; t++ {
		rate, ok := ambientRates[t]
		if !ok {
			continue
		}
		n := ds.Poisson(rate * factor)
		for i := 0; i < n; i++ {
			minute := day.Start() + simtime.Minute(ds.IntN(simtime.MinutesPerDay))
			node := topology.NodeID(ds.IntN(nodes))
			rec := Record{Time: minute.Time(), Node: node, Type: t, Severity: SeverityOf(t)}
			if !rec.Recorded() {
				continue
			}
			out = append(out, rec)
			// PSU failures de-assert within the hour.
			if t == PowerSupplyFailure {
				clear := rec
				clear.Type = PowerSupplyFailureDeasserted
				clear.Severity = SeverityOf(clear.Type)
				clear.Time = rec.Time.Add(time.Duration(5+ds.IntN(55)) * time.Minute)
				if clear.Recorded() && clear.Time.Before(end) {
					out = append(out, clear)
				}
			}
		}
	}
	return out
}

// Merge combines record streams into one time-ordered stream, dropping
// anything the firmware gate suppresses.
func Merge(streams ...[]Record) []Record {
	var out []Record
	for _, s := range streams {
		for _, r := range s {
			if r.Recorded() {
				out = append(out, r)
			}
		}
	}
	sortRecords(out)
	return out
}

func sortRecords(recs []Record) {
	sort.Slice(recs, func(a, b int) bool {
		if !recs[a].Time.Equal(recs[b].Time) {
			return recs[a].Time.Before(recs[b].Time)
		}
		if recs[a].Node != recs[b].Node {
			return recs[a].Node < recs[b].Node
		}
		return recs[a].Type < recs[b].Type
	})
}
