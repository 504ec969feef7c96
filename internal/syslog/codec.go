package syslog

// This file is the zero-allocation wire codec: append-based formatters
// (AppendCE/AppendDUE/AppendHET) that render a record into a caller-owned
// buffer with hand-rolled timestamp/decimal/hex emitters, and a Decoder
// whose ParseLineBytes scans a []byte line in place — no intermediate
// map[string]string, no per-field substrings — with a memoized date-prefix
// timestamp parser and an interning table for repeated hostnames.
//
// The string APIs (FormatCE/ParseLine) remain the reference semantics; the
// byte forms are required to agree with them line for line (the codec
// round-trip tests and FuzzParseLine enforce this), falling back to the
// string path for the one input the byte path does not model (more
// key=value tokens than its span table holds).

import (
	"bytes"
	"fmt"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/topology"
)

// AppendCE appends the syslog rendering of a correctable-error record to
// dst and returns the extended buffer. It is the allocation-free form of
// FormatCE and produces byte-identical output.
func AppendCE(dst []byte, r mce.CERecord) []byte {
	dst = AppendTimestamp(dst, r.Time)
	dst = append(dst, ' ')
	dst = r.Node.AppendString(dst)
	dst = append(dst, ' ')
	dst = append(dst, ceMarker...)
	dst = append(dst, " socket="...)
	dst = appendDec(dst, int64(r.Socket))
	dst = append(dst, " slot="...)
	dst = r.Slot.AppendName(dst)
	dst = append(dst, " rank="...)
	dst = appendDec(dst, int64(r.Rank))
	dst = append(dst, " bank="...)
	dst = appendDec(dst, int64(r.Bank))
	dst = append(dst, " row=0x"...)
	dst = appendHexPad(dst, int64(r.RowRaw), 4)
	dst = append(dst, " col=0x"...)
	dst = appendHexPad(dst, int64(r.Col), 3)
	dst = append(dst, " bitpos=0x"...)
	dst = appendHexPad(dst, int64(r.BitPos), 4)
	dst = append(dst, " addr=0x"...)
	dst = appendUhexPad(dst, uint64(r.Addr), 10)
	dst = append(dst, " syndrome=0x"...)
	return appendUhexPad(dst, uint64(r.Syndrome), 2)
}

// AppendDUE appends the syslog rendering of an uncorrectable-error record
// to dst; the allocation-free form of FormatDUE.
func AppendDUE(dst []byte, r mce.DUERecord) []byte {
	dst = AppendTimestamp(dst, r.Time)
	dst = append(dst, ' ')
	dst = r.Node.AppendString(dst)
	dst = append(dst, ' ')
	dst = append(dst, dueMarker...)
	dst = append(dst, " cause="...)
	dst = append(dst, r.Cause.String()...)
	dst = append(dst, " addr=0x"...)
	dst = appendUhexPad(dst, uint64(r.Addr), 10)
	dst = append(dst, " fatal="...)
	if r.Fatal {
		return append(dst, '1')
	}
	return append(dst, '0')
}

// AppendHET appends the syslog rendering of a Hardware Event Tracker
// record to dst; the allocation-free form of FormatHET.
func AppendHET(dst []byte, r het.Record) []byte {
	dst = AppendTimestamp(dst, r.Time)
	dst = append(dst, ' ')
	dst = r.Node.AppendString(dst)
	dst = append(dst, ' ')
	dst = append(dst, hetMarker...)
	dst = append(dst, " event="...)
	dst = append(dst, r.Type.String()...)
	dst = append(dst, " severity="...)
	dst = append(dst, r.Severity.String()...)
	if r.Addr != 0 {
		dst = append(dst, " addr=0x"...)
		dst = appendUhexPad(dst, uint64(r.Addr), 10)
	}
	return dst
}

// AppendTimestamp appends t in the wire timestamp format (RFC 3339, UTC,
// second resolution) to dst without allocating. Years outside [0, 9999]
// fall back to time.Time's own formatter for identical output.
func AppendTimestamp(dst []byte, t time.Time) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(dst, timeLayout)
	}
	hour, min, sec := t.Clock()
	dst = append(dst,
		byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-',
		byte('0'+int(month)/10), byte('0'+int(month)%10), '-',
		byte('0'+day/10), byte('0'+day%10), 'T',
		byte('0'+hour/10), byte('0'+hour%10), ':',
		byte('0'+min/10), byte('0'+min%10), ':',
		byte('0'+sec/10), byte('0'+sec%10), 'Z')
	return dst
}

// appendDec appends the base-10 rendering of v (matching fmt's %d).
func appendDec(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return appendUdec(dst, uint64(-v))
	}
	return appendUdec(dst, uint64(v))
}

func appendUdec(dst []byte, u uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}

// appendHexPad appends the lowercase hex rendering of v zero-padded to
// width digits, matching fmt's %0*x (the sign, if any, precedes the
// padding).
func appendHexPad(dst []byte, v int64, width int) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return appendUhexPad(dst, uint64(-v), width-1)
	}
	return appendUhexPad(dst, uint64(v), width)
}

const hexDigits = "0123456789abcdef"

func appendUhexPad(dst []byte, u uint64, width int) []byte {
	var tmp [16]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = hexDigits[u&0xf]
		u >>= 4
		if u == 0 {
			break
		}
	}
	for pad := width - (len(tmp) - i); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, tmp[i:]...)
}

// Marker byte forms, hoisted so the byte scanner never converts.
var (
	ceMarkerBytes  = []byte(ceMarker)
	dueMarkerBytes = []byte(dueMarker)
	hetMarkerBytes = []byte(hetMarker)
)

// maxWireFields bounds the in-place field scan. A valid record line has at
// most 11 key=value fields; a line with more tokens than this is handed to
// the legacy string parser so the two paths stay in exact agreement
// without the byte path needing quadratic duplicate detection on
// adversarial input.
const maxWireFields = 32

// maxInternedHosts caps the Decoder's hostname interning table so a
// corrupt log full of unique garbled hostnames cannot grow it without
// bound (valid logs have at most topology.Nodes distinct hosts).
const maxInternedHosts = 2 * topology.Nodes

// Decoder parses wire lines in place with cross-line memoization: the
// current date prefix's midnight is computed once per distinct date, and
// hostnames are interned so repeated hosts cost a map probe instead of a
// parse. The zero value is ready to use. A Decoder is not safe for
// concurrent use; give each goroutine its own (they are cheap).
type Decoder struct {
	datePfx  [11]byte // "YYYY-MM-DDT" of the memoized date
	dateOK   bool
	dateSecs int64 // Unix seconds at the memoized date's midnight UTC
	hosts    map[string]topology.NodeID
}

// decoderPool backs the package-level ParseLineBytes so one-off callers
// still get memoization across calls without sharing unsynchronized state.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// ParseLineBytes is ParseLine over raw bytes: same classification, same
// record values, same error categories, without per-line allocation. The
// input is not retained.
func ParseLineBytes(line []byte) (Parsed, error) {
	d := decoderPool.Get().(*Decoder)
	p, err := d.ParseLineBytes(line)
	decoderPool.Put(d)
	return p, err
}

// ParseLineBytes classifies and parses one syslog line held in a byte
// slice, writing nothing and allocating nothing on the canonical-grammar
// path. Fields split on Unicode whitespace as strings.Fields does, and a
// non-canonical timestamp goes through the same time.Parse call ParseLine
// makes; only a line with more than maxWireFields key=value tokens is
// delegated to the string parser. The result always agrees with
// ParseLine(string(line)). The line is not retained; callers may reuse
// the buffer.
func (d *Decoder) ParseLineBytes(line []byte) (Parsed, error) {
	switch {
	case bytes.Contains(line, ceMarkerBytes):
		ce, err := d.parseCEBytes(line)
		if err == errDelegate {
			return ParseLine(string(line))
		}
		return Parsed{Kind: KindCE, CE: ce}, classify(err)
	case bytes.Contains(line, dueMarkerBytes):
		due, err := d.parseDUEBytes(line)
		if err == errDelegate {
			return ParseLine(string(line))
		}
		return Parsed{Kind: KindDUE, DUE: due}, classify(err)
	case bytes.Contains(line, hetMarkerBytes):
		h, err := d.parseHETBytes(line)
		if err == errDelegate {
			return ParseLine(string(line))
		}
		return Parsed{Kind: KindHET, HET: h}, classify(err)
	default:
		return Parsed{Kind: KindOther}, nil
	}
}

// errDelegate is an internal sentinel: the byte path met input it does not
// model exactly; re-run the line through the string parser.
var errDelegate = fmt.Errorf("syslog: delegate to string parser")

// headerBytes parses the leading "<timestamp> <host> " before the marker
// and returns the remainder after it.
func (d *Decoder) headerBytes(line, marker []byte) (time.Time, topology.NodeID, []byte, error) {
	idx := bytes.Index(line, marker)
	head := line[:idx]
	ts, rest := nextFieldBytes(head)
	host, rest2 := nextFieldBytes(rest)
	if ts == nil || host == nil {
		return time.Time{}, 0, nil, fmt.Errorf("syslog: malformed header %q", head)
	}
	if extra, _ := nextFieldBytes(rest2); extra != nil {
		return time.Time{}, 0, nil, fmt.Errorf("syslog: malformed header %q", head)
	}
	t, err := d.parseTimestampBytes(ts)
	if err != nil {
		return time.Time{}, 0, nil, fmt.Errorf("syslog: bad timestamp: %w", err)
	}
	node, err := d.parseNodeBytes(host)
	if err != nil {
		return time.Time{}, 0, nil, err
	}
	return t, node, line[idx+len(marker):], nil
}

// parseTimestampBytes parses a canonical "YYYY-MM-DDTHH:MM:SSZ" timestamp
// allocation-free, memoizing the date prefix; anything else (offsets,
// fractional seconds, leap seconds, malformed text) takes the time.Parse
// path so behaviour matches the string parser exactly.
func (d *Decoder) parseTimestampBytes(b []byte) (time.Time, error) {
	if len(b) == 20 && b[4] == '-' && b[7] == '-' && b[10] == 'T' &&
		b[13] == ':' && b[16] == ':' && b[19] == 'Z' &&
		allDigits(b[0:4]) && allDigits(b[5:7]) && allDigits(b[8:10]) &&
		allDigits(b[11:13]) && allDigits(b[14:16]) && allDigits(b[17:19]) {
		if !d.dateOK || !bytes.Equal(d.datePfx[:], b[:11]) {
			year := digits(b[0:4])
			month := digits(b[5:7])
			day := digits(b[8:10])
			midnight := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
			y2, m2, d2 := midnight.Date()
			if y2 != year || int(m2) != month || d2 != day {
				// Not a real calendar date (e.g. Feb 30); let time.Parse
				// produce its canonical error.
				return d.parseTimestampSlow(b)
			}
			copy(d.datePfx[:], b[:11])
			d.dateSecs = midnight.Unix()
			d.dateOK = true
		}
		hour := digits(b[11:13])
		min := digits(b[14:16])
		sec := digits(b[17:19])
		if hour > 23 || min > 59 || sec > 59 {
			return d.parseTimestampSlow(b)
		}
		return time.Unix(d.dateSecs+int64(hour)*3600+int64(min)*60+int64(sec), 0).UTC(), nil
	}
	return d.parseTimestampSlow(b)
}

func (d *Decoder) parseTimestampSlow(b []byte) (time.Time, error) {
	ts, err := time.Parse(timeLayout, string(b))
	if err != nil {
		return time.Time{}, err
	}
	return ts.UTC(), nil
}

func allDigits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// digits converts a validated all-digit slice (len <= 4) to its value.
func digits(b []byte) int {
	n := 0
	for _, c := range b {
		n = n*10 + int(c-'0')
	}
	return n
}

// parseNodeBytes resolves a hostname through the interning table, parsing
// and caching on first sight of each distinct spelling.
func (d *Decoder) parseNodeBytes(host []byte) (topology.NodeID, error) {
	if id, ok := d.hosts[string(host)]; ok { // alloc-free lookup
		return id, nil
	}
	id, err := topology.ParseNodeID(string(host))
	if err != nil {
		return 0, err
	}
	if d.hosts == nil {
		d.hosts = make(map[string]topology.NodeID, 64)
	}
	if len(d.hosts) < maxInternedHosts {
		d.hosts[string(host)] = id
	}
	return id, nil
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts, the table strings.Fields itself uses.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextFieldBytes returns the first whitespace-delimited field of b (nil if
// none) and the remainder after it, with strings.Fields' definition of
// whitespace. ASCII bytes, all of a canonical line, cost one table
// lookup; only bytes >= utf8.RuneSelf are decoded as runes.
func nextFieldBytes(b []byte) (field, rest []byte) {
	start := 0
	for start < len(b) {
		if c := b[start]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			start++
			continue
		}
		r, size := utf8.DecodeRune(b[start:])
		if !unicode.IsSpace(r) {
			break
		}
		start += size
	}
	if start == len(b) {
		return nil, nil
	}
	end := start
	for end < len(b) {
		if c := b[end]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			end++
			continue
		}
		r, size := utf8.DecodeRune(b[end:])
		if unicode.IsSpace(r) {
			break
		}
		end += size
	}
	return b[start:end], b[end:]
}

// wireFields is the in-place replacement for kvFields: key and value spans
// into the scanned line, no map, no copies.
type wireFields struct {
	keys [maxWireFields][]byte
	vals [maxWireFields][]byte
	n    int
}

// scanFields splits rest into key=value spans with the same acceptance,
// duplicate and truncation-vs-garbling rules as kvFields. It returns
// errDelegate when the token count exceeds maxWireFields.
func scanFields(rest []byte, fs *wireFields) error {
	b := rest
	for {
		tok, after := nextFieldBytes(b)
		if tok == nil {
			return nil
		}
		eq := bytes.IndexByte(tok, '=')
		if eq <= 0 || eq == len(tok)-1 {
			// Missing '=', empty key, or empty value. Classified as
			// truncation only when this is the final token.
			cat := ErrGarbled
			if next, _ := nextFieldBytes(after); next == nil {
				cat = ErrTruncated
			}
			return fmt.Errorf("%w: syslog: malformed field %q", cat, tok)
		}
		key := tok[:eq]
		for i := 0; i < fs.n; i++ {
			if bytes.Equal(fs.keys[i], key) {
				return fmt.Errorf("%w: syslog: duplicate field %q", ErrGarbled, key)
			}
		}
		if fs.n >= maxWireFields {
			return errDelegate
		}
		fs.keys[fs.n] = key
		fs.vals[fs.n] = tok[eq+1:]
		fs.n++
		b = after
	}
}

// get returns the value span for key, if present.
func (fs *wireFields) get(key string) ([]byte, bool) {
	for i := 0; i < fs.n; i++ {
		if string(fs.keys[i]) == key { // alloc-free comparison
			return fs.vals[i], true
		}
	}
	return nil, false
}

// needIntBytes is needInt over field spans: the value must be exact
// decimal digits (base 10) or exact hex digits with an optional "0x"
// prefix (base 16) — no signs, no whitespace, no stray prefixes — and must
// land inside [lo, hi].
func needIntBytes(fs *wireFields, key string, base int, lo, hi int64) (int64, error) {
	v, ok := fs.get(key)
	if !ok {
		return 0, fmt.Errorf("%w: syslog: missing field %q", ErrTruncated, key)
	}
	if base == 16 && len(v) >= 2 && v[0] == '0' && v[1] == 'x' {
		v = v[2:]
	}
	if len(v) == 0 {
		return 0, fmt.Errorf("%w: syslog: field %q: empty value", ErrGarbled, key)
	}
	var n int64
	for _, c := range v {
		var digit int64
		switch {
		case c >= '0' && c <= '9':
			digit = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			digit = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			digit = int64(c-'A') + 10
		default:
			return 0, fmt.Errorf("%w: syslog: field %q: bad digit %q in %q", ErrGarbled, key, c, v)
		}
		if n > (1<<62)/int64(base) {
			return 0, fmt.Errorf("%w: syslog: field %q: value %q out of range", ErrGarbled, key, v)
		}
		n = n*int64(base) + digit
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("syslog: field %q = %d out of [%d, %d]", key, n, lo, hi)
	}
	return n, nil
}

func (d *Decoder) parseCEBytes(line []byte) (mce.CERecord, error) {
	ts, node, rest, err := d.headerBytes(line, ceMarkerBytes)
	if err != nil {
		return mce.CERecord{}, err
	}
	var fs wireFields
	if err := scanFields(rest, &fs); err != nil {
		return mce.CERecord{}, err
	}
	slotName, ok := fs.get("slot")
	if !ok {
		return mce.CERecord{}, fmt.Errorf("%w: syslog: missing field \"slot\"", ErrTruncated)
	}
	slot, err := parseSlotBytes(slotName)
	if err != nil {
		return mce.CERecord{}, err
	}
	socket, err := needIntBytes(&fs, "socket", 10, 0, topology.SocketsPerNode-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	if int(socket) != slot.Socket() {
		return mce.CERecord{}, fmt.Errorf("syslog: socket %d inconsistent with slot %s", socket, slot)
	}
	rank, err := needIntBytes(&fs, "rank", 10, 0, topology.RanksPerDIMM-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	bank, err := needIntBytes(&fs, "bank", 10, 0, topology.BanksPerRank-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	row, err := needIntBytes(&fs, "row", 16, 0, topology.RowsPerBank-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	col, err := needIntBytes(&fs, "col", 16, 0, topology.ColsPerRow-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	bitpos, err := needIntBytes(&fs, "bitpos", 16, 0, 1<<20)
	if err != nil {
		return mce.CERecord{}, err
	}
	addr, err := needIntBytes(&fs, "addr", 16, 0, topology.NodeMemBytes-1)
	if err != nil {
		return mce.CERecord{}, err
	}
	syndrome, err := needIntBytes(&fs, "syndrome", 16, 0, 255)
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

// parseSlotBytes parses a slot letter in place, deferring to ParseSlot for
// the error rendering on invalid input.
func parseSlotBytes(v []byte) (topology.Slot, error) {
	if len(v) == 1 {
		c := v[0]
		if c >= 'a' && c <= 'p' {
			c -= 'a' - 'A'
		}
		if c >= 'A' && c <= 'P' {
			return topology.Slot(c - 'A'), nil
		}
	}
	return topology.ParseSlot(string(v))
}

func (d *Decoder) parseDUEBytes(line []byte) (mce.DUERecord, error) {
	ts, node, rest, err := d.headerBytes(line, dueMarkerBytes)
	if err != nil {
		return mce.DUERecord{}, err
	}
	var fs wireFields
	if err := scanFields(rest, &fs); err != nil {
		return mce.DUERecord{}, err
	}
	causeName, ok := fs.get("cause")
	if !ok {
		return mce.DUERecord{}, fmt.Errorf("%w: syslog: missing field \"cause\"", ErrTruncated)
	}
	var cause faultmodel.DUECause
	switch {
	case string(causeName) == faultmodel.CauseUncorrectableECC.String():
		cause = faultmodel.CauseUncorrectableECC
	case string(causeName) == faultmodel.CauseMachineCheck.String():
		cause = faultmodel.CauseMachineCheck
	default:
		return mce.DUERecord{}, fmt.Errorf("syslog: unknown DUE cause %q", causeName)
	}
	addr, err := needIntBytes(&fs, "addr", 16, 0, topology.NodeMemBytes-1)
	if err != nil {
		return mce.DUERecord{}, err
	}
	fatal, err := needIntBytes(&fs, "fatal", 10, 0, 1)
	if err != nil {
		return mce.DUERecord{}, err
	}
	return mce.DUERecord{
		Time: ts, Node: node, Addr: topology.PhysAddr(addr),
		Cause: cause, Fatal: fatal == 1,
	}, nil
}

func (d *Decoder) parseHETBytes(line []byte) (het.Record, error) {
	ts, node, rest, err := d.headerBytes(line, hetMarkerBytes)
	if err != nil {
		return het.Record{}, err
	}
	var fs wireFields
	if err := scanFields(rest, &fs); err != nil {
		return het.Record{}, err
	}
	evName, ok := fs.get("event")
	if !ok {
		return het.Record{}, fmt.Errorf("%w: syslog: missing field \"event\"", ErrTruncated)
	}
	ev, err := het.ParseEventTypeBytes(evName)
	if err != nil {
		return het.Record{}, err
	}
	sevName, ok := fs.get("severity")
	if !ok {
		return het.Record{}, fmt.Errorf("%w: syslog: missing field \"severity\"", ErrTruncated)
	}
	sev, err := het.ParseSeverityBytes(sevName)
	if err != nil {
		return het.Record{}, err
	}
	rec := het.Record{Time: ts, Node: node, Type: ev, Severity: sev}
	if _, ok := fs.get("addr"); ok {
		addr, err := needIntBytes(&fs, "addr", 16, 0, topology.NodeMemBytes-1)
		if err != nil {
			return het.Record{}, err
		}
		rec.Addr = topology.PhysAddr(addr)
	}
	return rec, nil
}
