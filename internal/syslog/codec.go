package syslog

// This file is the zero-allocation wire codec: append-based formatters
// (AppendCE/AppendDUE/AppendHET) that render a record into a caller-owned
// buffer with hand-rolled timestamp/decimal/hex emitters, and a Decoder
// whose ParseLineBytes scans a []byte line in place — no intermediate
// map[string]string, no per-field substrings — with a memoized date-prefix
// timestamp parser.
//
// The Decoder has one grammar, the general byte grammar (parseGeneral):
// whitespace-split key=value fields in any order, every value checked.
// In front of it sits a single-pass decoder for CE lines in AppendCE's
// exact layout (parseCECanonical), which reads the nine keys in order
// with plain digit loops and declines on any deviation, so it accepts a
// subset of the general grammar's lines with identical records. The
// string form ParseLine is a wrapper over the byte path.

import (
	"bytes"
	"fmt"
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

// AppendTimestamp appends t in the wire timestamp format (RFC 3339, UTC)
// to dst without allocating. A time with a fractional second, or a year
// outside [0, 9999], goes through time.Time's own RFC3339Nano formatter,
// which appends the fraction with trailing zeros trimmed, so every time
// the parser returns renders back to itself.
func AppendTimestamp(dst []byte, t time.Time) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 || t.Nanosecond() != 0 {
		return t.AppendFormat(dst, time.RFC3339Nano)
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

// maxWireFields is how many key=value spans a line keeps in place. A
// valid record line has at most 11 fields; the tokens of a longer line go
// to a map, so duplicate detection stays linear on adversarial input.
const maxWireFields = 32

// Decoder parses wire lines in place with cross-line memoization: the
// current date prefix's midnight is computed once per distinct date. The
// zero value is ready to use. A Decoder is not safe for concurrent use;
// give each goroutine its own (they are cheap).
type Decoder struct {
	datePfx  [11]byte // "YYYY-MM-DDT" of the memoized date
	dateOK   bool
	dateSecs int64 // Unix seconds at the memoized date's midnight UTC

	// fallbacks counts lines the canonical CE path declined, so tests can
	// tell a line that took it from one the general grammar caught.
	fallbacks int
}

// ParseLineBytes classifies and parses one syslog line held in a byte
// slice, allocating nothing for a valid record line once the date cache
// is warm. Fields split on Unicode whitespace as
// strings.Fields does, and a non-canonical timestamp goes through
// time.Parse. The line is not retained; callers may reuse the buffer.
func (d *Decoder) ParseLineBytes(line []byte) (Parsed, error) {
	var p Parsed
	err := d.parse(line, &p)
	return p, err
}

// parse is ParseLineBytes writing into *p, which it overwrites entirely:
// the canonical CE path first, the general grammar for anything it
// declines.
func (d *Decoder) parse(line []byte, p *Parsed) error {
	if d.parseCECanonical(line, &p.CE) {
		p.Kind, p.DUE, p.HET = KindCE, mce.DUERecord{}, het.Record{}
		return nil
	}
	d.fallbacks++
	return d.parseGeneral(line, p)
}

// parseGeneral is the general byte grammar, the one every line the
// canonical path declines goes through and the reference that path is
// tested against.
func (d *Decoder) parseGeneral(line []byte, p *Parsed) error {
	switch {
	case bytes.Contains(line, ceMarkerBytes):
		ce, err := d.parseCEBytes(line)
		*p = Parsed{Kind: KindCE, CE: ce}
		return classify(err)
	case bytes.Contains(line, dueMarkerBytes):
		due, err := d.parseDUEBytes(line)
		*p = Parsed{Kind: KindDUE, DUE: due}
		return classify(err)
	case bytes.Contains(line, hetMarkerBytes):
		h, err := d.parseHETBytes(line)
		*p = Parsed{Kind: KindHET, HET: h}
		return classify(err)
	default:
		*p = Parsed{Kind: KindOther}
		return nil
	}
}

// ceHead is what follows the host on a canonical CE line, up to the
// first value.
const ceHead = " " + ceMarker + " socket="

// parseCECanonical decodes a CE line in AppendCE's exact layout in one
// pass: the 20-byte UTC timestamp, one space, the host, one space, the
// marker, then the nine keys in AppendCE's order, single-spaced. It
// applies every check parseCEBytes applies and reports whether the line
// passed, having written its record to *rec; on any deviation or failed
// check the general grammar decides the line. The
// two agree on every line this path accepts: the timestamp and the host
// hold no whitespace and no 'k', so the marker found after them is the
// line's first and the header is the two fields the grammar splits off,
// and values of at most 18 decimal or 15 hex digits never reach the
// grammar's overflow guard.
func (d *Decoder) parseCECanonical(line []byte, rec *mce.CERecord) bool {
	if len(line) < 22 || line[20] != ' ' {
		return false
	}
	sp := bytes.IndexByte(line[21:], ' ')
	c := cursor{b: line, i: 21 + sp, ok: sp > 0}
	c.lit(ceHead)
	if !c.ok {
		return false // not a CE line, or not laid out as one
	}
	ts, ok := d.canonicalTime(line[:20])
	if !ok {
		return false
	}
	node, ok := topology.ParseCanonicalNodeID(line[21 : 21+sp])
	if !ok {
		return false
	}
	socket := c.dec()
	c.lit(" slot=")
	slot := c.slot()
	c.lit(" rank=")
	rank := c.dec()
	c.lit(" bank=")
	bank := c.dec()
	c.lit(" row=0x")
	row := c.hex()
	c.lit(" col=0x")
	col := c.hex()
	c.lit(" bitpos=0x")
	bitpos := c.hex()
	c.lit(" addr=0x")
	addr := c.hex()
	c.lit(" syndrome=0x")
	syndrome := c.hex()
	// parseCEBytes's range checks.
	if !c.ok || c.i != len(line) ||
		socket > topology.SocketsPerNode-1 || int(socket) != slot.Socket() ||
		rank > topology.RanksPerDIMM-1 || bank > topology.BanksPerRank-1 ||
		row > topology.RowsPerBank-1 || col > topology.ColsPerRow-1 ||
		bitpos > 1<<20 || addr > topology.NodeMemBytes-1 || syndrome > 255 {
		return false
	}
	*rec = mce.CERecord{
		Time: ts, Node: node, Socket: int(socket), Slot: slot,
		Rank: int(rank), Bank: int(bank), RowRaw: int(row), Col: int(col),
		BitPos: int(bitpos), Addr: topology.PhysAddr(addr), Syndrome: uint8(syndrome),
	}
	return rec.CheckRanges() == nil
}

// cursor reads a canonical line left to right. ok turns false at the
// first mismatch and stays false; reads after it return garbage the
// caller discards.
type cursor struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes s.
func (c *cursor) lit(s string) {
	if c.ok && len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s { // alloc-free comparison
		c.i += len(s)
	} else {
		c.ok = false
	}
}

// dec consumes a run of 1 to 18 decimal digits and returns its value.
func (c *cursor) dec() int64 {
	var v int64
	start := c.i
	for ; c.i < len(c.b) && c.b[c.i]-'0' <= 9; c.i++ {
		v = v*10 + int64(c.b[c.i]-'0')
	}
	c.ok = c.ok && c.i > start && c.i-start <= 18
	return v
}

// hex consumes a run of 1 to 15 hex digits (either case) and returns its
// value.
func (c *cursor) hex() int64 {
	var v int64
	start := c.i
	for ; c.i < len(c.b); c.i++ {
		d := hexVal[c.b[c.i]]
		if d > 0xf {
			break
		}
		v = v<<4 | int64(d)
	}
	c.ok = c.ok && c.i > start && c.i-start <= 15
	return v
}

// slot consumes one slot letter, as parseSlotBytes reads it.
func (c *cursor) slot() topology.Slot {
	if c.i < len(c.b) {
		if l := c.b[c.i] | 0x20; l >= 'a' && l <= 'p' {
			c.i++
			return topology.Slot(l - 'a')
		}
	}
	c.ok = false
	return 0
}

// hexVal maps a hex digit of either case to its value, any other byte to
// 0xff.
var hexVal = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := 0; i < 16; i++ {
		t[hexDigits[i]], t["0123456789ABCDEF"[i]] = byte(i), byte(i)
	}
	return t
}()

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
	node, ok := topology.ParseCanonicalNodeID(host)
	if !ok {
		return time.Time{}, 0, nil, fmt.Errorf("syslog: bad host %q", host)
	}
	return t, node, line[idx+len(marker):], nil
}

// parseTimestampBytes parses a wire timestamp: a canonical one through
// the memoized date, anything else (offsets, fractional seconds, leap
// seconds, malformed text) through time.Parse.
func (d *Decoder) parseTimestampBytes(b []byte) (time.Time, error) {
	if t, ok := d.canonicalTime(b); ok {
		return t, nil
	}
	t, err := time.Parse(timeLayout, string(b))
	if err != nil {
		return time.Time{}, err
	}
	// An offset can carry a four-digit year out of [0, 9999] in UTC, which
	// the wire form cannot write back.
	if y := t.UTC().Year(); y < 0 || y > 9999 {
		return time.Time{}, fmt.Errorf("%q is outside years 0000-9999 in UTC", b)
	}
	return t.UTC(), nil
}

// canonicalTime converts a "YYYY-MM-DDTHH:MM:SSZ" timestamp naming a real
// calendar date and time of day without allocating, computing each
// date's midnight once; ok is false for any other input.
func (d *Decoder) canonicalTime(b []byte) (time.Time, bool) {
	if len(b) != 20 || b[13] != ':' || b[16] != ':' || b[19] != 'Z' ||
		!allDigits(b[11:13]) || !allDigits(b[14:16]) || !allDigits(b[17:19]) {
		return time.Time{}, false
	}
	if !d.dateOK || string(b[:11]) != string(d.datePfx[:]) {
		if b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
			!allDigits(b[0:4]) || !allDigits(b[5:7]) || !allDigits(b[8:10]) {
			return time.Time{}, false
		}
		year := digits(b[0:4])
		month := digits(b[5:7])
		day := digits(b[8:10])
		midnight := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
		if y2, m2, d2 := midnight.Date(); y2 != year || int(m2) != month || d2 != day {
			return time.Time{}, false // not a real calendar date (e.g. Feb 30)
		}
		copy(d.datePfx[:], b[:11])
		d.dateSecs = midnight.Unix()
		d.dateOK = true
	}
	hour := digits(b[11:13])
	min := digits(b[14:16])
	sec := digits(b[17:19])
	if hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Unix(d.dateSecs+int64(hour)*3600+int64(min)*60+int64(sec), 0).UTC(), true
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

// wireFields holds a line's key and value spans into the scanned line:
// the first maxWireFields in place, any further ones in more.
type wireFields struct {
	keys [maxWireFields][]byte
	vals [maxWireFields][]byte
	n    int
	more map[string][]byte
}

// scanFields splits rest into key=value spans. A token without '=', or
// with an empty key or value, is malformed: truncation when it is the
// final token, garbling anywhere else. A repeated key is garbling. The
// first such token decides the verdict.
func scanFields(rest []byte, fs *wireFields) error {
	b := rest
	for {
		tok, after := nextFieldBytes(b)
		if tok == nil {
			return nil
		}
		eq := bytes.IndexByte(tok, '=')
		if eq <= 0 || eq == len(tok)-1 {
			cat := ErrGarbled
			if next, _ := nextFieldBytes(after); next == nil {
				cat = ErrTruncated
			}
			return fmt.Errorf("%w: syslog: malformed field %q", cat, tok)
		}
		key, val := tok[:eq], tok[eq+1:]
		if _, dup := fs.lookup(key); dup {
			return fmt.Errorf("%w: syslog: duplicate field %q", ErrGarbled, key)
		}
		if fs.n < maxWireFields {
			fs.keys[fs.n], fs.vals[fs.n] = key, val
			fs.n++
		} else {
			if fs.more == nil {
				fs.more = make(map[string][]byte)
			}
			fs.more[string(key)] = val
		}
		b = after
	}
}

// lookup returns the value span for key, if present.
func (fs *wireFields) lookup(key []byte) ([]byte, bool) {
	for i := 0; i < fs.n; i++ {
		if bytes.Equal(fs.keys[i], key) {
			return fs.vals[i], true
		}
	}
	v, ok := fs.more[string(key)] // alloc-free lookup; nil map is empty
	return v, ok
}

// get returns the value span for key, if present.
func (fs *wireFields) get(key string) ([]byte, bool) {
	for i := 0; i < fs.n; i++ {
		if string(fs.keys[i]) == key { // alloc-free comparison
			return fs.vals[i], true
		}
	}
	v, ok := fs.more[key]
	return v, ok
}

// needIntBytes extracts an integer field. The value must be exact decimal
// digits (base 10) or exact hex digits with an optional "0x" prefix
// (base 16) — no signs, no whitespace, no stray prefixes, so garbled bytes
// cannot alias to valid fields — and must land inside [lo, hi].
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
