package syslog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/topology"
)

// Randomized valid records for the codec property tests. Times are built
// with time.Unix so the struct == comparisons below also pin the codec's
// fast-path timestamp representation against the reference parser's.

func randTime(rng *rand.Rand) time.Time {
	// 2019 through 2021, second resolution, as on the wire.
	return time.Unix(1546300800+rng.Int63n(3*365*24*3600), 0).UTC()
}

func randCE(rng *rand.Rand) mce.CERecord {
	slot := topology.Slot(rng.Intn(topology.SlotsPerNode))
	return mce.CERecord{
		Time:     randTime(rng),
		Node:     topology.NodeID(rng.Intn(topology.Nodes)),
		Socket:   slot.Socket(),
		Slot:     slot,
		Rank:     rng.Intn(topology.RanksPerDIMM),
		Bank:     rng.Intn(topology.BanksPerRank),
		RowRaw:   rng.Intn(topology.RowsPerBank),
		Col:      rng.Intn(topology.ColsPerRow),
		BitPos:   rng.Intn(1<<10)<<10 | rng.Intn(topology.MaxLineBitPosition+1),
		Addr:     topology.PhysAddr(rng.Int63n(topology.NodeMemBytes)),
		Syndrome: uint8(rng.Intn(256)),
	}
}

func randDUE(rng *rand.Rand) mce.DUERecord {
	cause := faultmodel.CauseUncorrectableECC
	if rng.Intn(2) == 1 {
		cause = faultmodel.CauseMachineCheck
	}
	return mce.DUERecord{
		Time:  randTime(rng),
		Node:  topology.NodeID(rng.Intn(topology.Nodes)),
		Addr:  topology.PhysAddr(rng.Int63n(topology.NodeMemBytes)),
		Cause: cause,
		Fatal: rng.Intn(2) == 1,
	}
}

func randHET(rng *rand.Rand) het.Record {
	r := het.Record{
		Time:     randTime(rng),
		Node:     topology.NodeID(rng.Intn(topology.Nodes)),
		Type:     het.EventType(rng.Intn(int(het.NumEventTypes))),
		Severity: het.Severity(rng.Intn(int(het.NumSeverities))),
	}
	if rng.Intn(4) != 0 { // addr is optional on the wire; leave some zero
		r.Addr = topology.PhysAddr(1 + rng.Int63n(topology.NodeMemBytes-1))
	}
	return r
}

// TestAppendMatchesSprintf pins the hand-rolled emitters to the fmt
// renderings they replaced, byte for byte.
func TestAppendMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		ce := randCE(rng)
		want := fmt.Sprintf("%s %s %s socket=%d slot=%s rank=%d bank=%d row=0x%04x col=0x%03x bitpos=0x%04x addr=0x%010x syndrome=0x%02x",
			ce.Time.UTC().Format(timeLayout), ce.Node, ceMarker,
			ce.Socket, ce.Slot.Name(), ce.Rank, ce.Bank, ce.RowRaw, ce.Col,
			ce.BitPos, uint64(ce.Addr), ce.Syndrome)
		if got := string(AppendCE(nil, ce)); got != want {
			t.Fatalf("AppendCE:\n got %q\nwant %q", got, want)
		}

		due := randDUE(rng)
		fatal := 0
		if due.Fatal {
			fatal = 1
		}
		want = fmt.Sprintf("%s %s %s cause=%s addr=0x%010x fatal=%d",
			due.Time.UTC().Format(timeLayout), due.Node, dueMarker,
			due.Cause, uint64(due.Addr), fatal)
		if got := string(AppendDUE(nil, due)); got != want {
			t.Fatalf("AppendDUE:\n got %q\nwant %q", got, want)
		}

		h := randHET(rng)
		want = fmt.Sprintf("%s %s %s event=%s severity=%s",
			h.Time.UTC().Format(timeLayout), h.Node, hetMarker, h.Type, h.Severity)
		if h.Addr != 0 {
			want += fmt.Sprintf(" addr=0x%010x", uint64(h.Addr))
		}
		if got := string(AppendHET(nil, h)); got != want {
			t.Fatalf("AppendHET:\n got %q\nwant %q", got, want)
		}
	}
}

// TestCodecRoundTripRandom drives random valid records through
// Append -> ParseLineBytes and requires every field back unchanged
// (including the time.Time representation, via struct ==).
func TestCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dec Decoder
	var buf []byte
	for i := 0; i < 1000; i++ {
		ce := randCE(rng)
		buf = AppendCE(buf[:0], ce)
		p, err := dec.ParseLineBytes(buf)
		if err != nil {
			t.Fatalf("ParseLineBytes(%q): %v", buf, err)
		}
		if p.Kind != KindCE || p.CE != ce {
			t.Fatalf("CE round trip:\n got %+v\nwant %+v", p.CE, ce)
		}

		due := randDUE(rng)
		buf = AppendDUE(buf[:0], due)
		if p, err = dec.ParseLineBytes(buf); err != nil || p.Kind != KindDUE || p.DUE != due {
			t.Fatalf("DUE round trip (%q): %+v, %v", buf, p.DUE, err)
		}

		h := randHET(rng)
		buf = AppendHET(buf[:0], h)
		if p, err = dec.ParseLineBytes(buf); err != nil || p.Kind != KindHET || p.HET != h {
			t.Fatalf("HET round trip (%q): %+v, %v", buf, p.HET, err)
		}
	}
}

// TestCanonicalPathTakesAppendCE pins that every line AppendCE renders
// for a valid record takes the canonical CE path: a silent fallback to
// the general grammar keeps every record right and only costs time, so
// the decoder's fallback count is what catches it. Lines off AppendCE's
// layout must fall back and still decode to the same record.
func TestCanonicalPathTakesAppendCE(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	recs := []mce.CERecord{
		{Time: time.Unix(0, 0).UTC(), Slot: 0},
		{
			Time: time.Date(2021, 12, 31, 23, 59, 59, 0, time.UTC), Node: topology.Nodes - 1,
			Socket: 1, Slot: topology.SlotsPerNode - 1, Rank: topology.RanksPerDIMM - 1,
			Bank: topology.BanksPerRank - 1, RowRaw: topology.RowsPerBank - 1, Col: topology.ColsPerRow - 1,
			BitPos: 1<<20 - 1<<10 | topology.MaxLineBitPosition, Addr: topology.NodeMemBytes - 1, Syndrome: 255,
		},
	}
	for i := 0; i < 5000; i++ {
		recs = append(recs, randCE(rng))
	}
	var dec Decoder
	var buf []byte
	for _, ce := range recs {
		if err := ce.CheckRanges(); err != nil {
			t.Fatalf("test record %+v is not valid: %v", ce, err)
		}
		buf = AppendCE(buf[:0], ce)
		if p, err := dec.ParseLineBytes(buf); err != nil || p != (Parsed{Kind: KindCE, CE: ce}) {
			t.Fatalf("ParseLineBytes(%q) = %+v, %v; want %+v", buf, p.CE, err, ce)
		}
	}
	if dec.fallbacks != 0 {
		t.Fatalf("%d of %d AppendCE lines fell back to the general grammar", dec.fallbacks, len(recs))
	}

	ce := sampleCE()
	line := FormatCE(ce)
	for _, off := range []string{
		strings.Replace(line, " slot=", "  slot=", 1),
		strings.Replace(line, " astra-", "\tastra-", 1),
		strings.Replace(line, "row=0x", "row=", 1),
		strings.Replace(line, "syndrome=0x4d", "syndrome=0x004d", 1) + "\r",
		strings.Replace(line, "rank=1 bank=5", "bank=5 rank=1", 1),
		strings.Replace(line, "rank=1", "rank=0000000000000000001", 1),
		" " + line,
		line + " ",
		line + " extra=1",
	} {
		before := dec.fallbacks
		if p, err := dec.ParseLineBytes([]byte(off)); err != nil || p.CE != ce {
			t.Errorf("ParseLineBytes(%q) = %+v, %v; want %+v", off, p.CE, err, ce)
		}
		if dec.fallbacks != before+1 {
			t.Errorf("off-layout line %q took the canonical path", off)
		}
	}
}

// mutate corrupts a valid wire line the ways relays do: cuts, bit rot,
// stray tokens, duplicated fields.
func mutate(rng *rand.Rand, line string) string {
	switch rng.Intn(5) {
	case 0: // truncate
		if len(line) == 0 {
			return line
		}
		return line[:rng.Intn(len(line))]
	case 1: // flip one byte to a random printable
		if len(line) == 0 {
			return line
		}
		b := []byte(line)
		b[rng.Intn(len(b))] = byte(0x20 + rng.Intn(95))
		return string(b)
	case 2: // append a stray token
		return line + " zz" + string(byte('a'+rng.Intn(26)))
	case 3: // duplicate an existing field token
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return line
		}
		return line + " " + fields[3+rng.Intn(len(fields)-3)]
	default: // inject junk mid-line
		i := rng.Intn(len(line) + 1)
		return line[:i] + " ?= " + line[i:]
	}
}

// TestParseLineBytesMatchesParseLine is the differential property: on
// valid lines and on mutated ones, the decoder — canonical CE path first
// — must agree with the general byte grammar alone on success, record
// values and error category.
func TestParseLineBytesMatchesParseLine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var dec Decoder
	for i := 0; i < 2000; i++ {
		var line string
		switch i % 3 {
		case 0:
			line = FormatCE(randCE(rng))
		case 1:
			line = FormatDUE(randDUE(rng))
		default:
			line = FormatHET(randHET(rng))
		}
		if i >= 300 { // first batch stays valid; the rest get corrupted
			line = mutate(rng, line)
		}
		assertParsersAgree(t, &dec, line)
	}
}

func assertParsersAgree(t *testing.T, dec *Decoder, line string) {
	t.Helper()
	var gen Decoder
	var gp Parsed
	gerr := gen.parseGeneral([]byte(line), &gp)
	p, err := dec.ParseLineBytes([]byte(line))
	if (gerr == nil) != (err == nil) {
		t.Fatalf("decoder disagreement on %q:\n general err: %v\n decoder err: %v", line, gerr, err)
	}
	if gerr != nil {
		if categorize(gerr) != categorize(err) {
			t.Fatalf("error category disagreement on %q:\n general: %v\n decoder: %v", line, gerr, err)
		}
		return
	}
	if gp != p {
		t.Fatalf("record disagreement on %q:\n general: %+v\n decoder: %+v", line, gp, p)
	}
}

// respace rebuilds a canonical record line with sep between the header
// fields and between the key=value pairs; the marker keeps its own spaces.
func respace(line, marker, sep string) string {
	i := strings.Index(line, marker)
	head := strings.Fields(line[:i])
	fields := strings.Fields(line[i+len(marker):])
	return strings.Join(head, sep) + sep + marker + sep + strings.Join(fields, sep)
}

// TestParseLineBytesNonASCIIWhitespace covers the field splitter's
// non-ASCII branch: strings.Fields splits on Unicode whitespace, so both
// parsers must accept a record whose fields are separated by it, and both
// must reject a non-space rune glued to a field.
func TestParseLineBytesNonASCIIWhitespace(t *testing.T) {
	ce, due, h := sampleCE(), sampleDUE(), sampleHET()
	var dec Decoder
	for _, sep := range []string{"\u0085", "\u00a0", "\u2003", "\u3000", " \u3000\t"} {
		for _, tc := range []struct {
			line string
			want Parsed
		}{
			{respace(FormatCE(ce), ceMarker, sep), Parsed{Kind: KindCE, CE: ce}},
			{respace(FormatDUE(due), dueMarker, sep), Parsed{Kind: KindDUE, DUE: due}},
			{respace(FormatHET(h), hetMarker, sep), Parsed{Kind: KindHET, HET: h}},
		} {
			p, err := dec.ParseLineBytes([]byte(tc.line))
			if err != nil || p != tc.want {
				t.Errorf("ParseLineBytes(%q) = %+v, %v; want %+v", tc.line, p, err, tc.want)
			}
			assertParsersAgree(t, &dec, tc.line)
		}
	}
	// U+200B and U+00E9 are not whitespace: they stay inside the field.
	for _, line := range []string{
		strings.Replace(FormatCE(ce), "rank=1", "rank=1\u200b", 1),
		strings.Replace(FormatCE(ce), " astra-", " \u00e9astra-", 1),
		strings.Replace(FormatDUE(due), "fatal=1", "fatal=1\u00e9", 1),
	} {
		if _, err := dec.ParseLineBytes([]byte(line)); !isGarbled(err) {
			t.Errorf("ParseLineBytes(%q): want garbled, got %v", line, err)
		}
		assertParsersAgree(t, &dec, line)
	}
}

// TestScanFieldOrderInsensitive pins that the span scanner, like the map
// it replaced, accepts fields in any order.
func TestScanFieldOrderInsensitive(t *testing.T) {
	ce := sampleCE()
	line := FormatCE(ce)
	idx := strings.Index(line, " socket=")
	head, tail := line[:idx], strings.Fields(line[idx:])
	rng := rand.New(rand.NewSource(17))
	var dec Decoder
	for i := 0; i < 50; i++ {
		rng.Shuffle(len(tail), func(a, b int) { tail[a], tail[b] = tail[b], tail[a] })
		shuffled := head + " " + strings.Join(tail, " ")
		p, err := dec.ParseLineBytes([]byte(shuffled))
		if err != nil {
			t.Fatalf("ParseLineBytes(%q): %v", shuffled, err)
		}
		if p.CE != ce {
			t.Fatalf("shuffled parse mismatch:\n got %+v\nwant %+v", p.CE, ce)
		}
	}
}

// TestWideLines pins the verdicts on lines with more key=value tokens
// than the decoder keeps in place: unknown keys are ignored wherever they
// stand, and the first duplicate or malformed token decides the error,
// past the 32nd token as before it.
func TestWideLines(t *testing.T) {
	ce := FormatCE(sampleCE())
	var dec Decoder
	for _, tc := range []struct {
		line string
		want string
	}{
		{ce + extraFields(30, ""), "nil"},
		{ce + extraFields(30, " zz=1"), "nil"},
		{extraFields(40, "")[1:] + " " + ce, "garbled"}, // tokens before the header
		{ce + extraFields(30, " x3=1"), "garbled"},
		{ce + extraFields(30, " rank=1"), "garbled"},
		{ce + extraFields(30, " x29=2"), "garbled"}, // both past the 32nd token
		{ce + extraFields(30, " x="), "truncated"},
		{ce + extraFields(30, " x=") + " x3=1", "garbled"},
		{ce + extraFields(30, " x3=1") + " x=", "garbled"},
		{FormatDUE(sampleDUE()) + extraFields(40, ""), "nil"},
		{FormatDUE(sampleDUE()) + extraFields(40, " fatal=0"), "garbled"},
		{FormatHET(sampleHET()) + extraFields(40, " severity="), "truncated"},
	} {
		p, err := dec.ParseLineBytes([]byte(tc.line))
		if got := categorize(err); got != tc.want {
			t.Errorf("%d-byte line ending %q: %s (%v), want %s", len(tc.line), tc.line[len(tc.line)-12:], got, err, tc.want)
		}
		if err == nil && p.Kind == KindCE && p.CE != sampleCE() {
			t.Errorf("wide CE line decoded to %+v", p.CE)
		}
		assertParsersAgree(t, &dec, tc.line)
	}
}

// TestStrictDigitFields pins the needInt tightening: strconv's wider
// integer syntax must be rejected as garbling by both parsers.
func TestStrictDigitFields(t *testing.T) {
	base := FormatCE(sampleCE()) // ... rank=1 bank=5 ...
	for _, tc := range []struct{ old, bad string }{
		{"rank=1", "rank=+1"},
		{"rank=1", "rank=-0"},
		{"rank=1", "rank=1_0"},
		{"bank=5", "bank=0x5"}, // hex prefix aliasing into a decimal field
		{"bank=5", "bank= 5"},
		{"addr=0x", "addr=0X"}, // uppercase hex prefix was never emitted
		{"syndrome=0x4d", "syndrome=0x"},
	} {
		line := strings.Replace(base, tc.old, tc.bad, 1)
		if line == base {
			t.Fatalf("substitution %q did not apply", tc.bad)
		}
		if _, err := ParseLine(line); !isGarbled(err) {
			t.Errorf("ParseLine with %q: want garbled, got %v", tc.bad, err)
		}
		var dec Decoder
		if _, err := dec.ParseLineBytes([]byte(line)); !isGarbled(err) {
			t.Errorf("ParseLineBytes with %q: want garbled, got %v", tc.bad, err)
		}
	}
}

// TestParseLineBytesZeroAlloc locks in the tentpole: a warm decoder
// parses canonical record lines without a single heap allocation, and the
// append formatters render into a pre-sized buffer likewise.
func TestParseLineBytesZeroAlloc(t *testing.T) {
	ceLine := []byte(FormatCE(sampleCE()))
	// The same record off the canonical layout, for the general grammar.
	ceGeneral := []byte(strings.Replace(string(ceLine), "rank=1 bank=5", "bank=5 rank=1", 1))
	dueLine := []byte(FormatDUE(sampleDUE()))
	hetLine := []byte(FormatHET(sampleHET()))
	noise := []byte("2019-05-20T13:04:55Z astra-r03c11n2 kernel: slurmd[1234]: job step completed")
	lines := [][]byte{ceLine, ceGeneral, dueLine, hetLine, noise}
	var dec Decoder
	for _, line := range lines { // warm date + host caches
		if _, err := dec.ParseLineBytes(line); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, line := range lines {
			if _, err := dec.ParseLineBytes(line); err != nil {
				panic(err)
			}
		}
	}); n != 0 {
		t.Errorf("warm ParseLineBytes: %v allocs per %d lines, want 0", n, len(lines))
	}
	before := dec.fallbacks
	if n := testing.AllocsPerRun(200, func() {
		if _, err := dec.ParseLineBytes(ceLine); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Errorf("warm canonical CE line: %v allocs, want 0", n)
	}
	if dec.fallbacks != before {
		t.Errorf("the canonical CE line fell back to the general grammar")
	}

	ce, due, h := sampleCE(), sampleDUE(), sampleHET()
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendCE(buf[:0], ce)
		buf = AppendDUE(buf[:0], due)
		buf = AppendHET(buf[:0], h)
	}); n != 0 {
		t.Errorf("Append emitters: %v allocs per 3 records, want 0", n)
	}
}

// benchLines is a mix of CE, DUE and HET record lines in equal parts.
func benchLines() [][]byte {
	rng := rand.New(rand.NewSource(23))
	var lines [][]byte
	for i := 0; i < 64; i++ {
		lines = append(lines,
			AppendCE(nil, randCE(rng)),
			AppendDUE(nil, randDUE(rng)),
			AppendHET(nil, randHET(rng)))
	}
	return lines
}

func BenchmarkParseLineBytes(b *testing.B) {
	lines := benchLines()
	var dec Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.ParseLineBytes(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// tolerantLog renders an in-order log shaped like a live Astra syslog:
// mostly CE records, a few DUE and HET records from a 256-node fleet,
// two records per second on average (so the reorder heap holds many
// equal timestamps), and one line of kernel chatter per 200 records.
func tolerantLog(lines int) []byte {
	rng := rand.New(rand.NewSource(29))
	at := time.Date(2019, 5, 20, 0, 0, 0, 0, time.UTC)
	var buf []byte
	for i := 0; i < lines; i++ {
		if i%200 == 199 {
			buf = append(buf, "2019-05-20T13:04:55Z astra-r03c11n2 kernel: slurmd[1234]: job step completed\n"...)
			continue
		}
		at = at.Add(time.Duration(rng.Intn(2)) * time.Second)
		node := topology.NodeID(rng.Intn(256))
		switch k := rng.Intn(20); {
		case k == 0:
			r := randDUE(rng)
			r.Time, r.Node = at, node
			buf = AppendDUE(buf, r)
		case k == 1:
			r := randHET(rng)
			r.Time, r.Node = at, node
			buf = AppendHET(buf, r)
		default:
			r := randCE(rng)
			r.Time, r.Node = at, node
			buf = AppendCE(buf, r)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// BenchmarkScanTolerant is the per-line cost of the scanner as astrad
// configures it: byte decoding plus the dedup ring and the reorder heap.
// One op is a full pass over the log with a fresh Scanner.
func BenchmarkScanTolerant(b *testing.B) {
	const lines = 20000
	log := tolerantLog(lines)
	cfg := ScanConfig{DedupWindow: 64, ReorderWindow: 5 * time.Minute}
	b.ReportAllocs()
	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScannerConfig(bytes.NewReader(log), cfg)
		for sc.Scan() {
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}

func BenchmarkAppendCE(b *testing.B) {
	ce := sampleCE()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendCE(buf[:0], ce)
	}
}

func isTruncated(err error) bool { return errors.Is(err, ErrTruncated) }
func isGarbled(err error) bool   { return err != nil && errors.Is(err, ErrGarbled) }

func categorize(err error) string {
	switch {
	case err == nil:
		return "nil"
	case isTruncated(err):
		return "truncated"
	default:
		return "garbled"
	}
}
