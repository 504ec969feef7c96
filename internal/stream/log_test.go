package stream

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
	"unsafe"

	"repro/internal/colfmt"
	"repro/internal/mce"
	"repro/internal/topology"
)

// TestRowSize pins the record log's row at 32 bytes or less.
func TestRowSize(t *testing.T) {
	if n := unsafe.Sizeof(row{}); n > 32 {
		t.Fatalf("row is %d bytes, want at most 32", n)
	}
}

// fuzzRecords reads CE records from data, 32 bytes each: in range for a
// row by default, with the fields flagged in each record's first byte
// set to raw values instead — wide, negative, a socket that is not the
// slot's, a non-UTC or a monotonic time — so the side table is
// exercised alongside the rows.
func fuzzRecords(data []byte, mono time.Time) []mce.CERecord {
	var recs []mce.CERecord
	for ; len(data) > 0; data = data[min(32, len(data)):] {
		var b [32]byte
		copy(b[:], data)
		flags := b[0]
		u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }
		r := mce.CERecord{
			Time:     time.Unix(int64(u(1)%(1<<33)), int64(u(9)%1e9)).UTC(),
			Node:     topology.NodeID(u(1) % topology.Nodes),
			Slot:     topology.Slot(u(9) % topology.SlotsPerNode),
			Rank:     int(b[17] % topology.RanksPerDIMM),
			Bank:     int(b[18] % topology.BanksPerRank),
			RowRaw:   int(u(17) % topology.RowsPerBank),
			Col:      int(u(24) % topology.ColsPerRow),
			BitPos:   int(u(19) % (1<<20 + 1)),
			Addr:     topology.PhysAddr(u(20) % topology.NodeMemBytes),
			Syndrome: b[31],
		}
		r.Socket = r.Slot.Socket()
		if flags&1 != 0 {
			r.Node = topology.NodeID(int64(u(2)))
		}
		if flags&2 != 0 {
			if b[2]&1 != 0 {
				r.Socket = 1 - r.Socket
			} else {
				r.Slot, r.Socket = topology.Slot(int64(u(3))), int(int64(u(11)))
			}
		}
		if flags&4 != 0 {
			r.Rank, r.Bank = int(int64(u(4))), int(int64(u(12)))
		}
		if flags&8 != 0 {
			r.RowRaw, r.Col = int(int64(u(5))), int(int64(u(13)))
		}
		if flags&16 != 0 {
			r.BitPos, r.Addr = int(int64(u(6))), topology.PhysAddr(u(14))
		}
		if flags&32 != 0 {
			r.Time = time.Unix(int64(u(7)), int64(u(15)))
		}
		if flags&64 != 0 {
			r.Time = r.Time.In(time.FixedZone("", int(int8(b[8]))*900))
		}
		if flags&128 != 0 {
			r.Time = mono.Add(time.Duration(u(16) % (1 << 40)))
		}
		recs = append(recs, r)
	}
	return recs
}

// FuzzRecordLog: whatever field values are appended through the log,
// pack calls a record exact exactly when its row unpacks to it,
// Records() and a handle return the records exactly, and the handle's
// encoding decodes back to them. An odd first byte starts the records
// just short of a chunk boundary.
func FuzzRecordLog(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 12))
	for _, flags := range []byte{1, 2, 4, 8, 16, 32, 64, 128, 255} {
		f.Add(append([]byte{flags}, bytes.Repeat([]byte{0xa5, flags, 0x3c}, 40)...))
	}
	mono := time.Now()
	f.Fuzz(func(t *testing.T, data []byte) {
		var l recordLog
		var in []mce.CERecord
		if len(data) > 0 && data[0]&1 != 0 {
			in = make([]mce.CERecord, chunkRows-3)
		}
		in = append(in, fuzzRecords(data, mono)...)
		for i := range in {
			if w, ok := pack(&in[i]); ok != (w.record() == in[i]) {
				t.Fatalf("record %d: pack says exact=%v, round trip says %v: %+v", i, ok, !ok, in[i])
			}
			if g := l.append(&in[i]); g != i {
				t.Fatalf("append returned index %d, want %d", g, i)
			}
		}
		tail := in[len(in)/2:]
		for _, h := range []RecordLog{{log: l}, {log: l, tail: tail}} {
			want := append(in[:len(in):len(in)], h.tail...)
			got := h.Records()
			if len(got) != len(want) || h.Len() != len(want) {
				t.Fatalf("%d records, Len %d, want %d", len(got), h.Len(), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: %+v, appended %+v", i, got[i], want[i])
				}
			}
			var buf bytes.Buffer
			if err := colfmt.WriteCE(&buf, h); err != nil {
				t.Fatal(err)
			}
			dec, err := colfmt.Decode(buf.Bytes())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(dec.CEs) != len(want) {
				t.Fatalf("decoded %d records, want %d", len(dec.CEs), len(want))
			}
			for i := range want {
				// colfmt stores an instant as Unix seconds and nanoseconds,
				// decoded as UTC: zone and monotonic reading do not survive.
				w := want[i]
				w.Time = time.Unix(w.Time.Unix(), int64(w.Time.Nanosecond())).UTC()
				if dec.CEs[i] != w {
					t.Fatalf("decoded record %d: %+v, want %+v", i, dec.CEs[i], w)
				}
			}
		}
	})
}
