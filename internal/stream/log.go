package stream

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/colfmt"
	"repro/internal/mce"
	"repro/internal/topology"
)

// row is one CE record packed without pointers, the record log's unit:
// 32 bytes against mce.CERecord's 104, and nothing for the GC to scan.
// Socket is not stored: a row's socket is its slot's. loc packs the
// 37-bit address, the 21-bit bit position, rank and bank into one word.
type row struct {
	sec      int64  // Time.Unix()
	loc      uint64 // addr<<27 | bitpos<<6 | rank<<4 | bank
	nsec     uint32 // Time.Nanosecond()
	node     uint16
	rowRaw   uint16
	col      uint16
	slot     uint8
	syndrome uint8
}

// loc's layout, low bits first: bank, rank, bit position, address (the
// rest of the word: topology.PhysAddrBits is 37).
const (
	locBankBits   = 4
	locRankBits   = 2
	locBitPosBits = 21

	locRankShift   = locBankBits
	locBitPosShift = locRankShift + locRankBits
	locAddrShift   = locBitPosShift + locBitPosBits
)

// pack packs r into a row. ok reports whether the row unpacks to r
// (record() == *r): every field within its slot, the socket the slot's,
// and the time UTC with no monotonic reading. FuzzRecordLog holds this
// check to the round trip.
func pack(r *mce.CERecord) (w row, ok bool) {
	sec, nsec := r.Time.Unix(), r.Time.Nanosecond()
	w = row{
		sec:      sec,
		nsec:     uint32(nsec),
		loc:      uint64(r.Addr)<<locAddrShift | uint64(r.BitPos)<<locBitPosShift | uint64(r.Rank)<<locRankShift | uint64(r.Bank),
		node:     uint16(r.Node),
		rowRaw:   uint16(r.RowRaw),
		col:      uint16(r.Col),
		slot:     uint8(r.Slot),
		syndrome: r.Syndrome,
	}
	ok = uint64(r.Node) < 1<<16 && uint64(r.Slot) < 1<<8 && r.Socket == r.Slot.Socket() &&
		uint64(r.Rank) < 1<<locRankBits && uint64(r.Bank) < 1<<locBankBits &&
		uint64(r.RowRaw) < 1<<16 && uint64(r.Col) < 1<<16 &&
		uint64(r.BitPos) < 1<<locBitPosBits && uint64(r.Addr) < 1<<(64-locAddrShift) &&
		r.Time == time.Unix(sec, int64(nsec)).UTC()
	return w, ok
}

// The accessors below decode loc and derive the socket; record and
// rowColumn both read a row through them.
func (w *row) bank() int               { return int(w.loc & (1<<locBankBits - 1)) }
func (w *row) rank() int               { return int(w.loc >> locRankShift & (1<<locRankBits - 1)) }
func (w *row) bitPos() int             { return int(w.loc >> locBitPosShift & (1<<locBitPosBits - 1)) }
func (w *row) addr() topology.PhysAddr { return topology.PhysAddr(w.loc >> locAddrShift) }
func (w *row) socket() int             { return topology.Slot(w.slot).Socket() }

// record unpacks the row.
func (w *row) record() (r mce.CERecord) {
	w.unpack(&r)
	return r
}

// unpack unpacks the row into *r, field by field: Restore's loop reuses
// one record instead of copying a returned one.
func (w *row) unpack(r *mce.CERecord) {
	r.Time = time.Unix(w.sec, int64(w.nsec)).UTC()
	r.Node = topology.NodeID(w.node)
	r.Socket = w.socket()
	r.Slot = topology.Slot(w.slot)
	r.Rank = w.rank()
	r.Bank = w.bank()
	r.RowRaw = int(w.rowRaw)
	r.Col = int(w.col)
	r.BitPos = w.bitPos()
	r.Addr = w.addr()
	r.Syndrome = w.syndrome
}

// chunkRows is the record log's chunk size (32 KiB of rows). Chunks are
// allocated whole and never move, so the log grows without copying rows
// and a full chunk never changes again.
const (
	chunkShift = 10
	chunkRows  = 1 << chunkShift
	chunkMask  = chunkRows - 1
)

// recordLog is the engine's append-only record log: every ingested CE,
// in arrival order, as rows in fixed-size chunks. A record stays a row
// only if it unpacks to itself (== on mce.CERecord, time.Time
// representation included); any other record — a field out of a row's
// range, a socket that is not its slot's, a non-UTC or monotonic time —
// is kept whole in the exotic side table, so the log is exact for any
// input. Every shipped record source applies CheckRanges and yields UTC
// times, so the side table stays empty in production.
type recordLog struct {
	chunks []*[chunkRows]row
	n      int
	// exoticIdx holds, ascending, the arrival indices whose records are
	// exoticRecs' (their rows are placeholders).
	exoticIdx  []int
	exoticRecs []mce.CERecord
}

// append adds r and returns its arrival index.
func (l *recordLog) append(r *mce.CERecord) int {
	g := l.n
	if g&chunkMask == 0 {
		l.chunks = append(l.chunks, new([chunkRows]row))
	}
	w, ok := pack(r)
	if !ok {
		l.exoticIdx = append(l.exoticIdx, g)
		l.exoticRecs = append(l.exoticRecs, *r)
	}
	l.chunks[g>>chunkShift][g&chunkMask] = w
	l.n++
	return g
}

// RecordLog is a read-only handle on a record log followed by a tail of
// records the caller holds: an engine's log as it stood when the handle
// was taken, with a checkpoint's still-queued records as the tail, or a
// log DecodeRecordLog decoded. Taking it is O(1) and copies no record:
// full chunks never change, and the handle reads the partial chunk only
// below the length it captured, so it is safe to read without any lock
// while the engine keeps ingesting. It implements colfmt.CEColumns, so a
// checkpoint encodes straight from the rows, and Restore builds an
// engine from a decoded one.
type RecordLog struct {
	log  recordLog
	tail colfmt.CESlice
	// decoded marks a handle DecodeRecordLog returned: no engine appends
	// to its rows, and it has no tail and no exotic records.
	decoded bool
}

// DecodeRecordLog decodes a CE-only colfmt file (what colfmt.WriteCE
// writes) straight into the rows of a record log, for Restore to take
// over: no mce.CERecord is materialized. It accepts exactly the CE-only
// files colfmt.Decode accepts whose records all pass
// mce.CERecord.CheckRanges, and the handle's records are Decode's.
func DecodeRecordLog(data []byte) (RecordLog, error) {
	var s logSink
	if err := colfmt.DecodeCE(data, &s); err != nil {
		return RecordLog{}, err
	}
	return RecordLog{log: s.log, decoded: true}, nil
}

// logSink decodes into a record log's rows as colfmt's CE sink. Every
// value is held to its mce.CERecord.CheckRanges range before it is
// narrowed into a row field, so a record that fails the check is
// rejected, never truncated into one that passes; such records are the
// only ones a row could not hold exactly. set counts, per field, the
// records stored so far: the columns of the two fields whose values
// combine (seconds and nanoseconds; slot and socket) may arrive in
// either order.
type logSink struct {
	log recordLog
	set [colfmt.CESyndrome + 1]int
}

// SetLen implements colfmt.CESink.
func (s *logSink) SetLen(n int) {
	s.log.chunks = make([]*[chunkRows]row, 0, (n+chunkMask)>>chunkShift)
	for len(s.log.chunks)<<chunkShift < n {
		s.log.chunks = append(s.log.chunks, new([chunkRows]row))
	}
	s.log.n = n
}

// SetColumn implements colfmt.CESink, one chunk's rows at a time.
func (s *logSink) SetColumn(f colfmt.CEField, first int, vs []int64) error {
	if f > colfmt.CESyndrome || first != s.set[f] {
		return fmt.Errorf("stream: CE field %d stored out of order at record %d", f, first)
	}
	for len(vs) > 0 {
		lo := first & chunkMask
		rows := s.log.chunks[first>>chunkShift][lo:min(chunkRows, lo+len(vs))]
		if i, err := s.setRows(f, first, rows, vs[:len(rows)]); err != nil {
			return fmt.Errorf("record %d: %w", first+i, err)
		}
		first += len(rows)
		vs = vs[len(rows):]
	}
	s.set[f] = first
	return nil
}

// setRows stores field f of rows, the records from first on. It returns
// the index of the value it rejects.
func (s *logSink) setRows(f colfmt.CEField, first int, rows []row, vs []int64) (int, error) {
	// other is how many of rows already hold the field f combines with.
	other := func(g colfmt.CEField) int { return min(len(rows), max(0, s.set[g]-first)) }
	switch f {
	case colfmt.CETimeSec:
		// Seconds stored after a record's nanoseconds reset them, as
		// colfmt.Decode's time.Unix(sec, 0) does.
		for i, v := range vs {
			rows[i].sec, rows[i].nsec = v, 0
		}
	case colfmt.CETimeNsec:
		// Nanoseconds fold into stored seconds exactly as
		// time.Unix(sec, nsec) normalizes them; before their seconds
		// they are moot.
		for i, v := range vs[:other(colfmt.CETimeSec)] {
			sec := rows[i].sec
			if v < 0 || v >= 1e9 {
				q := v / 1e9
				sec += q
				v -= q * 1e9
				if v < 0 {
					v += 1e9
					sec--
				}
			}
			rows[i].sec, rows[i].nsec = sec, uint32(v)
		}
	case colfmt.CENode:
		for i, v := range vs {
			if uint64(v) >= topology.Nodes {
				return i, fmt.Errorf("mce: node %d out of range", v)
			}
			rows[i].node = uint16(v)
		}
	case colfmt.CESlot:
		// A socket stored first waits in the slot field for its slot.
		sockets := other(colfmt.CESocket)
		for i, v := range vs {
			if uint64(v) >= topology.SlotsPerNode {
				return i, fmt.Errorf("mce: slot %d out of range", v)
			}
			if i < sockets && int(rows[i].slot) != topology.Slot(v).Socket() {
				return i, fmt.Errorf("mce: slot %d on socket %d out of range", v, rows[i].slot)
			}
			rows[i].slot = uint8(v)
		}
	case colfmt.CESocket:
		slots := other(colfmt.CESlot)
		for i, v := range vs {
			if i < slots {
				if v != int64(rows[i].socket()) {
					return i, fmt.Errorf("mce: slot %d on socket %d out of range", rows[i].slot, v)
				}
			} else if uint64(v) >= topology.SocketsPerNode {
				return i, fmt.Errorf("mce: socket %d out of range", v)
			} else {
				rows[i].slot = uint8(v)
			}
		}
	case colfmt.CERank:
		for i, v := range vs {
			if uint64(v) >= topology.RanksPerDIMM {
				return i, fmt.Errorf("mce: rank %d out of range", v)
			}
			rows[i].loc |= uint64(v) << locRankShift
		}
	case colfmt.CEBank:
		for i, v := range vs {
			if uint64(v) >= topology.BanksPerRank {
				return i, fmt.Errorf("mce: bank %d out of range", v)
			}
			rows[i].loc |= uint64(v)
		}
	case colfmt.CERowRaw:
		for i, v := range vs {
			if uint64(v) >= topology.RowsPerBank {
				return i, fmt.Errorf("mce: row %d out of range", v)
			}
			rows[i].rowRaw = uint16(v)
		}
	case colfmt.CECol:
		for i, v := range vs {
			if uint64(v) >= topology.ColsPerRow {
				return i, fmt.Errorf("mce: col %d out of range", v)
			}
			rows[i].col = uint16(v)
		}
	case colfmt.CEBitPos:
		for i, v := range vs {
			if uint64(v) > 1<<20 || v&0x3ff > topology.MaxLineBitPosition {
				return i, fmt.Errorf("mce: bitpos %#x out of range", v)
			}
			rows[i].loc |= uint64(v) << locBitPosShift
		}
	case colfmt.CEAddr:
		for i, v := range vs {
			if uint64(v) >= topology.NodeMemBytes {
				return i, fmt.Errorf("mce: addr %#x out of range", uint64(v))
			}
			rows[i].loc |= uint64(v) << locAddrShift
		}
	case colfmt.CESyndrome:
		for i, v := range vs {
			if uint64(v) > 0xff {
				return i, fmt.Errorf("syndrome %d out of range", v)
			}
			rows[i].syndrome = uint8(v)
		}
	}
	return 0, nil
}

// RecordLog returns a handle on every record ingested so far followed by
// tail, which the handle keeps (the caller must not modify it).
// IngestBatch(h.Records()) into a fresh engine reproduces this engine
// after it ingests tail.
func (e *Engine) RecordLog(tail []mce.CERecord) RecordLog {
	e.mu.Lock()
	defer e.mu.Unlock()
	return RecordLog{log: e.log, tail: tail}
}

// Len implements colfmt.CEColumns.
func (h RecordLog) Len() int { return h.log.n + len(h.tail) }

// Records returns a copy of the handle's records in order.
func (h RecordLog) Records() []mce.CERecord {
	out := make([]mce.CERecord, h.log.n, h.Len())
	for i := range out {
		out[i] = h.log.chunks[i>>chunkShift][i&chunkMask].record()
	}
	for k, g := range h.log.exoticIdx {
		out[g] = h.log.exoticRecs[k]
	}
	return append(out, h.tail...)
}

// Column implements colfmt.CEColumns, reading each field straight from
// the rows.
func (h RecordLog) Column(f colfmt.CEField, first int, dst []int64) {
	end := min(first+len(dst), h.log.n)
	for i := first; i < end; {
		lo := i & chunkMask
		hi := min(chunkRows, lo+end-i)
		rowColumn(f, h.log.chunks[i>>chunkShift][lo:hi], dst[i-first:])
		i += hi - lo
	}
	xs := h.log.exoticIdx
	for k := sort.SearchInts(xs, first); k < len(xs) && xs[k] < end; k++ {
		colfmt.CESlice(h.log.exoticRecs[k:k+1]).Column(f, 0, dst[xs[k]-first:][:1])
	}
	if start := max(first, h.log.n); start < first+len(dst) {
		h.tail.Column(f, start-h.log.n, dst[start-first:])
	}
}

// rowColumn fills dst[:len(rows)] with field f of each row.
func rowColumn(f colfmt.CEField, rows []row, dst []int64) {
	dst = dst[:len(rows)]
	switch f {
	case colfmt.CETimeSec:
		for i := range rows {
			dst[i] = rows[i].sec
		}
	case colfmt.CETimeNsec:
		for i := range rows {
			dst[i] = int64(rows[i].nsec)
		}
	case colfmt.CENode:
		for i := range rows {
			dst[i] = int64(rows[i].node)
		}
	case colfmt.CESlot:
		for i := range rows {
			dst[i] = int64(rows[i].slot)
		}
	case colfmt.CESocket:
		for i := range rows {
			dst[i] = int64(rows[i].socket())
		}
	case colfmt.CERank:
		for i := range rows {
			dst[i] = int64(rows[i].rank())
		}
	case colfmt.CEBank:
		for i := range rows {
			dst[i] = int64(rows[i].bank())
		}
	case colfmt.CERowRaw:
		for i := range rows {
			dst[i] = int64(rows[i].rowRaw)
		}
	case colfmt.CECol:
		for i := range rows {
			dst[i] = int64(rows[i].col)
		}
	case colfmt.CEBitPos:
		for i := range rows {
			dst[i] = int64(rows[i].bitPos())
		}
	case colfmt.CEAddr:
		for i := range rows {
			dst[i] = int64(rows[i].addr())
		}
	case colfmt.CESyndrome:
		for i := range rows {
			dst[i] = int64(rows[i].syndrome)
		}
	default:
		panic(fmt.Sprintf("stream: unknown CE field %d", f))
	}
}
