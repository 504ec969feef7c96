// Package syslog defines the text log formats the simulated Astra writes
// and the strict parsers the ETL uses to read them back. Three record
// kinds share the stream, as on the real system (§2.3): correctable-error
// records drained by the EDAC poller, uncorrectable machine-check records,
// and Hardware Event Tracker records; arbitrary other kernel chatter is
// tolerated and classified as noise.
//
// Parsing is strict: a line that claims to be a CE/DUE/HET record but has
// malformed or inconsistent fields is an error, not a silent skip — the
// caller decides how to account for corruption (the dataset loader counts
// and reports it, mirroring the paper's handling of invalid sensor data).
package syslog

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/het"
	"repro/internal/mce"
)

// Malformed record lines are classified into two corruption categories so
// the ingest path can report *how* a log went bad, not just that it did:
//
//   - ErrTruncated: the record was cut short — the marker and leading
//     fields parse but required trailing fields are missing (partial
//     write, rotation cut, relay MTU).
//   - ErrGarbled: the record's bytes are inconsistent or unparseable —
//     bad header, out-of-range or contradictory field values, duplicate
//     fields (bit rot, interleaved writes, forged lines).
//
// Every non-nil ParseLine error wraps exactly one of the two; test with
// errors.Is.
var (
	ErrTruncated = errors.New("record truncated")
	ErrGarbled   = errors.New("record garbled")
)

// Markers identifying record kinds within a syslog line.
const (
	ceMarker  = "kernel: EDAC tx2_mc: CE"
	dueMarker = "kernel: mce: [Hardware Error] DUE"
	hetMarker = "HET:"
)

// timeLayout is the timestamp format at the head of each line.
const timeLayout = time.RFC3339

// FormatCE renders a correctable-error record as a syslog line. It is a
// thin wrapper over AppendCE; hot paths should use the append form.
func FormatCE(r mce.CERecord) string {
	return string(AppendCE(make([]byte, 0, 160), r))
}

// FormatDUE renders an uncorrectable-error record as a syslog line. It is
// a thin wrapper over AppendDUE; hot paths should use the append form.
func FormatDUE(r mce.DUERecord) string {
	return string(AppendDUE(make([]byte, 0, 128), r))
}

// FormatHET renders a Hardware Event Tracker record as a syslog line. It
// is a thin wrapper over AppendHET; hot paths should use the append form.
func FormatHET(r het.Record) string {
	return string(AppendHET(make([]byte, 0, 128), r))
}

// Kind classifies a parsed line.
type Kind int

// Line kinds.
const (
	// KindOther is unrecognized kernel chatter (not an error).
	KindOther Kind = iota
	// KindCE is a correctable-error record.
	KindCE
	// KindDUE is an uncorrectable-error record.
	KindDUE
	// KindHET is a Hardware Event Tracker record.
	KindHET
)

// Parsed is the result of parsing one syslog line; exactly the field
// matching Kind is meaningful.
type Parsed struct {
	Kind Kind
	CE   mce.CERecord
	DUE  mce.DUERecord
	HET  het.Record
}

// Time returns the record's timestamp (zero for KindOther).
func (p Parsed) Time() time.Time { return timeOf(&p) }

// timeOf is Parsed.Time without the receiver copy, for hot paths that
// hold a pointer into a slice of records (the tolerator's slab).
func timeOf(p *Parsed) time.Time {
	switch p.Kind {
	case KindCE:
		return p.CE.Time
	case KindDUE:
		return p.DUE.Time
	case KindHET:
		return p.HET.Time
	default:
		return time.Time{}
	}
}

// ParseLine classifies and parses one syslog line. Lines bearing none of
// the record markers return Kind Other and no error; lines bearing a
// marker but failing validation return an error describing the corruption,
// wrapping ErrTruncated or ErrGarbled. It is a fresh Decoder's
// ParseLineBytes over the string's bytes.
func ParseLine(line string) (Parsed, error) {
	var d Decoder
	return d.ParseLineBytes([]byte(line))
}

// classify guarantees every parse error wraps one of the two corruption
// categories; errors not tagged at the failure site default to garbled.
func classify(err error) error {
	if err == nil || errors.Is(err, ErrTruncated) || errors.Is(err, ErrGarbled) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrGarbled, err)
}
