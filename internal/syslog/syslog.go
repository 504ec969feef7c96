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
	"strconv"
	"strings"
	"time"

	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/topology"
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
// hold a pointer into a slice of records (the reorder heap's sift).
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
// wrapping ErrTruncated or ErrGarbled.
func ParseLine(line string) (Parsed, error) {
	switch {
	case strings.Contains(line, ceMarker):
		ce, err := parseCE(line)
		return Parsed{Kind: KindCE, CE: ce}, classify(err)
	case strings.Contains(line, dueMarker):
		due, err := parseDUE(line)
		return Parsed{Kind: KindDUE, DUE: due}, classify(err)
	case strings.Contains(line, hetMarker):
		h, err := parseHET(line)
		return Parsed{Kind: KindHET, HET: h}, classify(err)
	default:
		return Parsed{Kind: KindOther}, nil
	}
}

// classify guarantees every parse error wraps one of the two corruption
// categories; errors not tagged at the failure site default to garbled.
func classify(err error) error {
	if err == nil || errors.Is(err, ErrTruncated) || errors.Is(err, ErrGarbled) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrGarbled, err)
}

// header parses the leading "<timestamp> <host> " of a record line and
// returns the remainder after the given marker.
func header(line, marker string) (time.Time, topology.NodeID, string, error) {
	idx := strings.Index(line, marker)
	head := strings.Fields(line[:idx])
	if len(head) != 2 {
		return time.Time{}, 0, "", fmt.Errorf("syslog: malformed header %q", line[:idx])
	}
	ts, err := time.Parse(timeLayout, head[0])
	if err != nil {
		return time.Time{}, 0, "", fmt.Errorf("syslog: bad timestamp: %w", err)
	}
	node, err := topology.ParseNodeID(head[1])
	if err != nil {
		return time.Time{}, 0, "", err
	}
	return ts.UTC(), node, strings.TrimSpace(line[idx+len(marker):]), nil
}

// kvFields splits "k=v" fields into a map, rejecting duplicates and
// malformed pairs. A malformed *final* field is classified as truncation
// (the cut landed mid-field); anywhere else it is garbling.
func kvFields(s string) (map[string]string, error) {
	out := map[string]string{}
	fields := strings.Fields(s)
	for i, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			cat := ErrGarbled
			if i == len(fields)-1 {
				cat = ErrTruncated
			}
			return nil, fmt.Errorf("%w: syslog: malformed field %q", cat, f)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("%w: syslog: duplicate field %q", ErrGarbled, k)
		}
		out[k] = v
	}
	return out, nil
}

// needInt extracts an integer field. Values must be exact digit strings —
// decimal digits for base 10, hex digits with an optional "0x" prefix for
// base 16. strconv's wider syntax ("+5", "-0", a "0x" prefix aliasing into
// a decimal field) is rejected so garbled bytes cannot alias to valid
// fields.
func needInt(kv map[string]string, key string, base int, lo, hi int64) (int64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("%w: syslog: missing field %q", ErrTruncated, key)
	}
	if base == 16 {
		v = strings.TrimPrefix(v, "0x")
	}
	if !exactDigits(v, base) {
		return 0, fmt.Errorf("%w: syslog: field %q: not exact base-%d digits: %q", ErrGarbled, key, base, v)
	}
	n, err := strconv.ParseInt(v, base, 64)
	if err != nil {
		return 0, fmt.Errorf("syslog: field %q: %w", key, err)
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("syslog: field %q = %d out of [%d, %d]", key, n, lo, hi)
	}
	return n, nil
}

// exactDigits reports whether v is one or more digits of the given base,
// nothing else.
func exactDigits(v string, base int) bool {
	if v == "" {
		return false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= '0' && c <= '9':
		case base == 16 && (c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'):
		default:
			return false
		}
	}
	return true
}

func parseCE(line string) (mce.CERecord, error) {
	ts, node, rest, err := header(line, ceMarker)
	if err != nil {
		return mce.CERecord{}, err
	}
	kv, err := kvFields(rest)
	if err != nil {
		return mce.CERecord{}, err
	}
	slotName, ok := kv["slot"]
	if !ok {
		return mce.CERecord{}, fmt.Errorf("%w: syslog: missing field \"slot\"", ErrTruncated)
	}
	slot, err := topology.ParseSlot(slotName)
	if err != nil {
		return mce.CERecord{}, err
	}
	socket, err := needInt(kv, "socket", 10, 0, topology.SocketsPerNode-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	if int(socket) != slot.Socket() {
		return mce.CERecord{}, fmt.Errorf("syslog: socket %d inconsistent with slot %s", socket, slot)
	}
	rank, err := needInt(kv, "rank", 10, 0, topology.RanksPerDIMM-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	bank, err := needInt(kv, "bank", 10, 0, topology.BanksPerRank-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	row, err := needInt(kv, "row", 16, 0, topology.RowsPerBank-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	col, err := needInt(kv, "col", 16, 0, topology.ColsPerRow-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	bitpos, err := needInt(kv, "bitpos", 16, 0, 1<<20)
	if err != nil {
		return mce.CERecord{}, err
	}
	addr, err := needInt(kv, "addr", 16, 0, topology.NodeMemBytes-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	syndrome, err := needInt(kv, "syndrome", 16, 0, 255)
	if err != nil {
		return mce.CERecord{}, err
	}
	rec := mce.CERecord{
		Time: ts, Node: node, Socket: int(socket), Slot: slot,
		Rank: int(rank), Bank: int(bank), RowRaw: int(row), Col: int(col),
		BitPos: int(bitpos), Addr: topology.PhysAddr(addr), Syndrome: uint8(syndrome),
	}
	if err := rec.CheckRanges(); err != nil {
		return mce.CERecord{}, err
	}
	return rec, nil
}

func parseDUE(line string) (mce.DUERecord, error) {
	ts, node, rest, err := header(line, dueMarker)
	if err != nil {
		return mce.DUERecord{}, err
	}
	kv, err := kvFields(rest)
	if err != nil {
		return mce.DUERecord{}, err
	}
	causeName, ok := kv["cause"]
	if !ok {
		return mce.DUERecord{}, fmt.Errorf("%w: syslog: missing field \"cause\"", ErrTruncated)
	}
	var cause faultmodel.DUECause
	switch causeName {
	case faultmodel.CauseUncorrectableECC.String():
		cause = faultmodel.CauseUncorrectableECC
	case faultmodel.CauseMachineCheck.String():
		cause = faultmodel.CauseMachineCheck
	default:
		return mce.DUERecord{}, fmt.Errorf("syslog: unknown DUE cause %q", causeName)
	}
	addr, err := needInt(kv, "addr", 16, 0, topology.NodeMemBytes-1)
	if err != nil {
		return mce.DUERecord{}, err
	}
	fatal, err := needInt(kv, "fatal", 10, 0, 1)
	if err != nil {
		return mce.DUERecord{}, err
	}
	return mce.DUERecord{
		Time: ts, Node: node, Addr: topology.PhysAddr(addr),
		Cause: cause, Fatal: fatal == 1,
	}, nil
}

func parseHET(line string) (het.Record, error) {
	ts, node, rest, err := header(line, hetMarker)
	if err != nil {
		return het.Record{}, err
	}
	kv, err := kvFields(rest)
	if err != nil {
		return het.Record{}, err
	}
	evName, ok := kv["event"]
	if !ok {
		return het.Record{}, fmt.Errorf("%w: syslog: missing field \"event\"", ErrTruncated)
	}
	ev, err := het.ParseEventType(evName)
	if err != nil {
		return het.Record{}, err
	}
	sevName, ok := kv["severity"]
	if !ok {
		return het.Record{}, fmt.Errorf("%w: syslog: missing field \"severity\"", ErrTruncated)
	}
	sev, err := het.ParseSeverity(sevName)
	if err != nil {
		return het.Record{}, err
	}
	rec := het.Record{Time: ts, Node: node, Type: ev, Severity: sev}
	if _, ok := kv["addr"]; ok {
		addr, err := needInt(kv, "addr", 16, 0, topology.NodeMemBytes-1)
		if err != nil {
			return het.Record{}, err
		}
		rec.Addr = topology.PhysAddr(addr)
	}
	return rec, nil
}
