package colfmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/topology"
)

// fixtureRecords builds n CE, n/4 DUE and n/8 HET records with the value
// shapes real telemetry has — clustered nodes and slots, mostly-ascending
// timestamps, repeated addresses — plus deliberate oddities (zero times,
// out-of-order seconds, nanosecond components) the encodings must survive.
func fixtureRecords(n int) Records {
	var recs Records
	base := time.Date(2019, 5, 20, 13, 4, 55, 0, time.UTC)
	rng := uint64(0x2545f4914f6cdd1d)
	next := func(m uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % m
	}
	for i := 0; i < n; i++ {
		r := mce.CERecord{
			Time:     base.Add(time.Duration(i)*time.Second - time.Duration(next(90))*time.Second),
			Node:     topology.NodeID(next(64) * 7 % topology.Nodes),
			Socket:   int(next(2)),
			Slot:     topology.Slot(next(topology.SlotsPerNode)),
			Rank:     int(next(2)),
			Bank:     int(next(16)),
			RowRaw:   int(next(1 << 18)),
			Col:      int(next(1 << 10)),
			BitPos:   int(next(1 << 13)),
			Addr:     topology.PhysAddr(0x4000_0000 + next(1<<30)&^0x3f),
			Syndrome: uint8(next(256)),
		}
		if i%97 == 0 {
			r.Time = r.Time.Add(time.Duration(next(1_000_000_000)) * time.Nanosecond)
		}
		recs.CEs = append(recs.CEs, r)
	}
	for i := 0; i < n/4; i++ {
		recs.DUEs = append(recs.DUEs, mce.DUERecord{
			Time:  base.Add(time.Duration(i*3) * time.Minute),
			Node:  topology.NodeID(next(uint64(topology.Nodes))),
			Addr:  topology.PhysAddr(next(1 << 40)),
			Cause: faultmodel.DUECause(next(uint64(faultmodel.NumDUECauses))),
			Fatal: next(2) == 1,
		})
	}
	for i := 0; i < n/8; i++ {
		recs.HETs = append(recs.HETs, het.Record{
			Time:     base.Add(time.Duration(i*7) * time.Minute),
			Node:     topology.NodeID(next(uint64(topology.Nodes))),
			Type:     het.EventType(next(uint64(het.NumEventTypes))),
			Severity: het.Severity(next(uint64(het.NumSeverities))),
			Addr:     topology.PhysAddr(next(1 << 38)),
		})
	}
	return recs
}

func encode(t *testing.T, recs Records) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTrip proves byte-for-byte schema fidelity: every field of
// every record — time.Time representation included — compares equal with
// ==, at sizes covering the empty, single-block and multi-block cases.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000, blockRecords + 137} {
		recs := fixtureRecords(n)
		data := encode(t, recs)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("n=%d: Decode: %v", n, err)
		}
		if len(got.CEs) != len(recs.CEs) || len(got.DUEs) != len(recs.DUEs) || len(got.HETs) != len(recs.HETs) {
			t.Fatalf("n=%d: counts (%d,%d,%d) != (%d,%d,%d)", n,
				len(got.CEs), len(got.DUEs), len(got.HETs),
				len(recs.CEs), len(recs.DUEs), len(recs.HETs))
		}
		for i := range recs.CEs {
			if got.CEs[i] != recs.CEs[i] {
				t.Fatalf("n=%d: CE %d: %+v != %+v", n, i, got.CEs[i], recs.CEs[i])
			}
		}
		for i := range recs.DUEs {
			if got.DUEs[i] != recs.DUEs[i] {
				t.Fatalf("n=%d: DUE %d: %+v != %+v", n, i, got.DUEs[i], recs.DUEs[i])
			}
		}
		for i := range recs.HETs {
			if got.HETs[i] != recs.HETs[i] {
				t.Fatalf("n=%d: HET %d: %+v != %+v", n, i, got.HETs[i], recs.HETs[i])
			}
		}
	}
}

// TestDeterministic pins the encoder's output: same records, same bytes.
func TestDeterministic(t *testing.T) {
	recs := fixtureRecords(500)
	if !bytes.Equal(encode(t, recs), encode(t, recs)) {
		t.Fatal("two encodes of the same records differ")
	}
}

func TestSniff(t *testing.T) {
	data := encode(t, fixtureRecords(2))
	if !Sniff(data) {
		t.Error("Sniff rejected a colfmt file")
	}
	for _, bad := range []string{"", "ASTRACOL", "ASTRACOL\x02", "2019-05-20T13:04:55Z astra-r03c11n2 kernel: ..."} {
		if Sniff([]byte(bad)) {
			t.Errorf("Sniff accepted %q", bad)
		}
	}
}

// TestCorruptionDetected flips every byte of an encoded file, one at a
// time, and requires Decode to fail each time: between the magic, the
// per-block CRCs and the column-coverage accounting there is no byte
// whose silent mutation is acceptable.
func TestCorruptionDetected(t *testing.T) {
	data := encode(t, fixtureRecords(64))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := Decode(mut); err == nil {
			t.Errorf("flip at byte %d/%d decoded without error", i, len(data))
		}
	}
}

// TestTruncationDetected requires every proper prefix to fail to decode.
func TestTruncationDetected(t *testing.T) {
	data := encode(t, fixtureRecords(64))
	for i := 0; i < len(data); i += 13 {
		if _, err := Decode(data[:i]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", i, len(data))
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage decoded without error")
	}
}

// TestGarbageInput throws structured-looking garbage at the decoder; the
// only contract is error-not-panic and no unbounded allocation.
func TestGarbageInput(t *testing.T) {
	inputs := []string{
		Magic,
		Magic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
		Magic + "\x01\x00\x00" + "\x01\x00",
		Magic + "\x00\x00\x00",       // counts but no end marker
		Magic + "\x00\x00\x00\x05",   // unknown kind
		strings.Repeat("\x99", 4096), // not even magic
		Magic + "\x02\x00\x00\x00",   // 2 CEs, immediate end: columns uncovered
	}
	for _, in := range inputs {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("garbage %q decoded without error", in)
		}
	}
}

// forged assembles a file from a header and raw blocks, each carrying a
// valid CRC: damage only the decoder's own bounds can catch. A count of
// -1 writes 2^64-1.
func forged(header string, blocks ...func(e *encoder)) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(Magic + header)
	e := &encoder{w: bw}
	for _, b := range blocks {
		b(e)
	}
	bw.WriteByte(kindEnd)
	bw.Flush()
	return buf.Bytes()
}

// hostileCounts returns checksum-valid inputs whose counts once sized an
// allocation or a slice unchecked, and panicked the decoder.
func hostileCounts() map[string][]byte {
	uv := func(vs ...uint64) string {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return string(b)
	}
	return map[string][]byte{
		// 2^63 + 2^63 + 1 wraps to 1: "makeslice: len out of range".
		"header-counts-wrap": []byte(Magic + uv(1<<63, 1<<63, 1) + "\x00"),
		// A 2^50-entry dictionary in a one-byte payload: "makeslice: cap
		// out of range".
		"dict-count-huge": forged(uv(1, 0, 0), func(e *encoder) {
			e.block(kindCE, colNodeDict, 0, 1<<50, []byte{2})
		}),
		// A second block whose first+count wraps past 2^64 to within the
		// record count: "slice bounds out of range".
		"block-first-count-wrap": forged(uv(2, 0, 0), func(e *encoder) {
			e.block(kindCE, colTimeSec, 0, 1, []byte{2})
			e.block(kindCE, colTimeSec, 1, -1, []byte{2})
		}),
	}
}

// TestHostileCountsRejected: counts a checksum cannot vouch for are
// bounded by the bytes they need before they size anything.
func TestHostileCountsRejected(t *testing.T) {
	for name, in := range hostileCounts() {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestReadWriter covers the io.Reader path used by the sniffing readers.
func TestReadWriter(t *testing.T) {
	recs := fixtureRecords(200)
	data := encode(t, recs)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("Read round trip diverged")
	}
}

// FuzzDecode asserts the decoder's hostile-input contract: arbitrary
// bytes never panic, and anything that decodes re-encodes decodably.
func FuzzDecode(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, fixtureRecords(8)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(Magic + "\x00\x00\x00\x00"))
	f.Add([]byte{})
	for _, in := range hostileCounts() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Decode(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			t.Fatalf("re-encode of decoded records failed: %v", err)
		}
		if _, err := Decode(buf.Bytes()); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// TestDecodeAllocs pins what Decode allocates for a whole file: the
// record slices and a constant handful besides, however many records the
// file holds. A per-record or per-block allocation creeping into the
// decoder trips the ceiling.
func TestDecodeAllocs(t *testing.T) {
	data := encode(t, fixtureRecords(20000))
	n := testing.AllocsPerRun(5, func() {
		if _, err := Decode(data); err != nil {
			panic(err)
		}
	})
	// 7 when pinned; the ceiling allows the larger of +10% and +16.
	if n > 23 {
		t.Errorf("Decode: %v allocs per file, want at most 23", n)
	}
}
