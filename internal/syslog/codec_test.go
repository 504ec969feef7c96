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
// valid lines and on mutated ones, the byte parser must agree with the
// string parser on success, record values and error category.
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
	sp, serr := ParseLine(line)
	bp, berr := dec.ParseLineBytes([]byte(line))
	if (serr == nil) != (berr == nil) {
		t.Fatalf("parser disagreement on %q:\n string err: %v\n bytes err:  %v", line, serr, berr)
	}
	if serr != nil {
		if categorize(serr) != categorize(berr) {
			t.Fatalf("error category disagreement on %q:\n string: %v\n bytes:  %v", line, serr, berr)
		}
		return
	}
	if sp != bp {
		t.Fatalf("record disagreement on %q:\n string: %+v\n bytes:  %+v", line, sp, bp)
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
		if _, err := ParseLineBytes([]byte(line)); !isGarbled(err) {
			t.Errorf("ParseLineBytes with %q: want garbled, got %v", tc.bad, err)
		}
	}
}

// TestParseLineBytesZeroAlloc locks in the tentpole: a warm decoder
// parses canonical record lines without a single heap allocation, and the
// append formatters render into a pre-sized buffer likewise.
func TestParseLineBytesZeroAlloc(t *testing.T) {
	ceLine := []byte(FormatCE(sampleCE()))
	dueLine := []byte(FormatDUE(sampleDUE()))
	hetLine := []byte(FormatHET(sampleHET()))
	noise := []byte("2019-05-20T13:04:55Z astra-r03c11n2 kernel: slurmd[1234]: job step completed")
	var dec Decoder
	for _, line := range [][]byte{ceLine, dueLine, hetLine} { // warm date + host caches
		if _, err := dec.ParseLineBytes(line); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, line := range [][]byte{ceLine, dueLine, hetLine, noise} {
			if _, err := dec.ParseLineBytes(line); err != nil {
				panic(err)
			}
		}
	}); n != 0 {
		t.Errorf("warm ParseLineBytes: %v allocs per 4 lines, want 0", n)
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

// The codec benchmarks compare the legacy string parser with the byte
// decoder on the same mixed record lines; the ratio is the per-line
// speedup quoted in the README.
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

func BenchmarkParseLine(b *testing.B) {
	lines := make([]string, 0, 192)
	for _, l := range benchLines() {
		lines = append(lines, string(l))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
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
