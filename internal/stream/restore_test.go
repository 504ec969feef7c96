package stream_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/colfmt"
	"repro/internal/mce"
	"repro/internal/stream"
	"repro/internal/topology"
)

// restoreConfig is the configuration both sides of a restore
// differential run.
var restoreConfig = stream.Config{DIMMs: 48 * topology.SlotsPerNode}

// encodeCE is colfmt.Write of recs as a CE-only file.
func encodeCE(t testing.TB, recs []mce.CERecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := colfmt.Write(&buf, colfmt.Records{CEs: recs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRanges is colfmt.Decode's records if every one passes
// mce.CERecord.CheckRanges, the files a restore must accept.
func checkRanges(data []byte) ([]mce.CERecord, error) {
	recs, err := colfmt.Decode(data)
	if err != nil {
		return nil, err
	}
	if len(recs.DUEs)+len(recs.HETs) > 0 {
		return nil, errors.New("DUE or HET records in a CE-only file")
	}
	for i := range recs.CEs {
		if err := recs.CEs[i].CheckRanges(); err != nil {
			return nil, err
		}
	}
	return recs.CEs, nil
}

// sameEngine fails unless got answers every query exactly as want does.
func sameEngine(t testing.TB, got, want *stream.Engine) {
	t.Helper()
	if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("Snapshot: %d faults, want %d (or their Errors differ)", len(g), len(w))
	}
	if g, w := got.Summary(), want.Summary(); g != w {
		t.Fatalf("Summary %+v, want %+v", g, w)
	}
	if g, w := got.Features(), want.Features(); !reflect.DeepEqual(g, w) {
		t.Fatal("Features differ")
	}
	if g, w := got.Records(), want.Records(); !reflect.DeepEqual(g, w) {
		t.Fatalf("Records: %d, want %d (or they differ)", len(g), len(w))
	}
	if g, w := got.LiveView().Banks(), want.LiveView().Banks(); !reflect.DeepEqual(g, w) {
		t.Fatal("LiveView().Banks() differ")
	}
}

// replayed is the engine a restore must equal: IngestBatch of recs into
// a fresh engine.
func replayed(recs []mce.CERecord) *stream.Engine {
	e := stream.New(restoreConfig)
	e.IngestBatch(recs)
	return e
}

// tile repeats recs, shifted in time, until there are at least n.
func tile(recs []mce.CERecord, n int) []mce.CERecord {
	span := recs[len(recs)-1].Time.Sub(recs[0].Time) + time.Hour
	var out []mce.CERecord
	for shift := time.Duration(0); len(out) < n; shift += span {
		for _, r := range recs {
			r.Time = r.Time.Add(shift)
			out = append(out, r)
		}
	}
	return out
}

// TestRestoreMatchesIngestBatch is the restore differential: decoding a
// blob into a record log and restoring it gives the engine IngestBatch of
// colfmt.Decode's records gives, over the fixture, the fixture tiled past
// one colfmt block (65,536 records), and lengths either side of a log
// chunk boundary.
func TestRestoreMatchesIngestBatch(t *testing.T) {
	ces := fixture(t).CERecords
	cases := map[string][]mce.CERecord{
		"fixture": ces,
		"tiled":   tile(ces, 1<<16+3000),
		"empty":   nil,
	}
	for _, n := range []int{1023, 1025, 2047, 2049} {
		cases[fmt.Sprintf("len%d", n)] = tile(ces, n)[:n]
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			blob := encodeCE(t, recs)
			h, err := stream.DecodeRecordLog(blob)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := colfmt.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			got := stream.Restore(restoreConfig, h)
			sameEngine(t, got, replayed(dec.CEs))
			// Restored, the engine ingests on exactly as the replay does,
			// appending past the rows it took over from h.
			more := ces[:1500]
			want := replayed(append(dec.CEs[:len(dec.CEs):len(dec.CEs)], more...))
			got.IngestBatch(more)
			sameEngine(t, got, want)
			if !reflect.DeepEqual(h.Records(), dec.CEs) {
				t.Fatal("the restored engine's ingest changed the handle's records")
			}
		})
	}
}

// TestRestoreBytesPerRecord caps the heap a warm restart costs per
// record, allocated and kept, for DecodeRecordLog + Restore of the
// fixture, as TestIngestBatchBytesPerRecord caps IngestBatch's. The rows
// are decoded in place and taken over whole, so no mce.CERecord slice
// and no chunk copy is paid for: colfmt.Decode + IngestBatch allocate
// 291 B/record here, this path 186.
func TestRestoreBytesPerRecord(t *testing.T) {
	const maxAlloc, maxKept = 230, 150
	recs := fixture(t).CERecords
	blob := encodeCE(t, recs)
	var before, after, held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h, err := stream.DecodeRecordLog(blob)
	if err != nil {
		t.Fatal(err)
	}
	e := stream.Restore(restoreConfig, h)
	runtime.ReadMemStats(&after)
	h = stream.RecordLog{}
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(e)
	e = nil
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	n := float64(len(recs))
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / n
	live := float64(int64(held.HeapAlloc)-int64(dropped.HeapAlloc)) / n
	t.Logf("DecodeRecordLog + Restore of %d records: %.1f B/record allocated, %.1f kept", len(recs), alloc, live)
	if alloc > maxAlloc || live > maxKept {
		t.Fatalf("DecodeRecordLog + Restore of %d records: %.1f B/record allocated (max %d), %.1f kept (max %d)",
			len(recs), alloc, maxAlloc, live, maxKept)
	}
}

// overrideCE is a CE source whose field f of record i reads v: how a
// test writes a value colfmt.Write never would (nanoseconds past a
// second), through the encoder itself.
type overrideCE struct {
	colfmt.CESlice
	f colfmt.CEField
	i int
	v int64
}

func (o overrideCE) Column(f colfmt.CEField, first int, dst []int64) {
	o.CESlice.Column(f, first, dst)
	if f == o.f && o.i >= first && o.i < first+len(dst) {
		dst[o.i-first] = o.v
	}
}

// forgeBlock renders one checksummed column block.
func forgeBlock(kind, col byte, first, count uint64, payload []byte) []byte {
	b := binary.AppendUvarint([]byte{kind, col}, first)
	b = binary.AppendUvarint(b, count)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzRestore: for any input, DecodeRecordLog accepts exactly what
// colfmt.Decode accepts with every record passing CheckRanges, and the
// restored engine then equals IngestBatch of Decode's records. The seeds
// are FuzzDecode's (a file of all three kinds, an empty file, no bytes,
// the hostile counts), rebuilt here, plus CE-only files holding a value
// past each narrowed field's row width and nanoseconds past a second.
func FuzzRestore(f *testing.F) {
	ces := fixture(f).CERecords[:40]
	var all bytes.Buffer
	if err := colfmt.Write(&all, colfmt.Records{CEs: ces[:8], DUEs: []mce.DUERecord{{Time: ces[0].Time}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(all.Bytes())
	f.Add([]byte(colfmt.Magic + "\x00\x00\x00\x00"))
	f.Add([]byte{})
	uv := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	magic := []byte(colfmt.Magic)
	f.Add(append(append(magic, uv(1<<63, 1<<63, 1)...), 0))
	f.Add(append(append(append(magic, uv(1, 0, 0)...), forgeBlock(1, 200, 0, 1<<50, []byte{2})...), 0))
	f.Add(append(append(append(append(magic, uv(2, 0, 0)...),
		forgeBlock(1, 0, 0, 1, []byte{2})...), forgeBlock(1, 0, 1, 1<<64-1, []byte{2})...), 0))
	f.Add(encodeCE(f, ces))
	// Empty DUE and HET blocks in a CE-only file, which Decode accepts:
	// once, the CE-only walk stored them through Decode's absent records
	// and panicked.
	for _, kind := range []byte{2, 3} {
		f.Add(append(append(append(magic, uv(0, 0, 0)...), forgeBlock(kind, 0, 0, 0, nil)...), 0))
		ce := encodeCE(f, ces[:8])
		f.Add(append(append(ce[:len(ce)-1:len(ce)-1], forgeBlock(kind, 5, 0, 0, nil)...), 0))
	}
	for _, o := range []struct {
		f colfmt.CEField
		v int64
	}{
		{colfmt.CENode, 1<<16 + 3}, {colfmt.CERowRaw, 1 << 16}, {colfmt.CECol, 1 << 16},
		{colfmt.CEBitPos, 1 << 21}, {colfmt.CERank, 4}, {colfmt.CEBank, 16},
		{colfmt.CESocket, 1 - int64(ces[7].Socket)}, {colfmt.CETimeNsec, 1e9 + 5}, {colfmt.CETimeNsec, -1},
	} {
		var buf bytes.Buffer
		if err := colfmt.WriteCE(&buf, overrideCE{colfmt.CESlice(ces), o.f, 7, o.v}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := checkRanges(data)
		h, err := stream.DecodeRecordLog(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeRecordLog error %v, Decode + CheckRanges error %v", err, werr)
		}
		if err != nil {
			return
		}
		sameEngine(t, stream.Restore(restoreConfig, h), replayed(want))
	})
}
