// Package colfmt is the columnar replay format for parsed telemetry: a
// fixed-schema binary encoding of the CE/DUE/HET record streams that a
// syslog scan produces, so re-analysis runs (astrareport, astrafit, the
// benchmarks) can load months of telemetry without paying for text
// parsing again.
//
// Layout: a magic header, the three record counts, then a sequence of
// per-column blocks, each covering up to 64Ki records of one column of
// one record kind:
//
//	magic "ASTRACOL\x01"
//	uvarint nCE | uvarint nDUE | uvarint nHET
//	block*:
//	  byte kind (1=CE 2=DUE 3=HET) | byte column
//	  uvarint first | uvarint count | uvarint payloadLen
//	  payload | uint32le CRC32(header+payload)
//	byte 0 (end marker)
//
// Column encodings: timestamps are split into a delta-zigzag-varint
// seconds column (first value absolute, then per-record deltas — nearly
// always 1-2 bytes for time-ordered telemetry) and a nanoseconds uvarint
// column; hostnames (node IDs) and DIMM slots are dictionary-encoded
// (a first-appearance value table per kind, then per-record indexes);
// remaining integer fields are plain varints; single-byte fields
// (syndrome, cause, fatal, event type, severity) are raw bytes. Every
// block carries a CRC32 of its header and payload, so corruption is
// detected at block granularity rather than surfacing as silently wrong
// records.
package colfmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/topology"
)

// Magic heads every colfmt file; the trailing byte is the format version.
const Magic = "ASTRACOL\x01"

// MagicLen is how many leading bytes Sniff needs.
const MagicLen = len(Magic)

// Sniff reports whether prefix begins a colfmt file.
func Sniff(prefix []byte) bool {
	return len(prefix) >= MagicLen && string(prefix[:MagicLen]) == Magic
}

// blockRecords caps how many records one column block spans: large enough
// to amortize the 10-byte header + CRC, small enough that a detected
// corruption names a usefully narrow record range.
const blockRecords = 1 << 16

// Record kinds (block header byte). 0 is the end-of-file marker.
const (
	kindEnd = iota
	kindCE
	kindDUE
	kindHET
)

// Column ids shared by all kinds.
const (
	colTimeSec  = 0 // delta zigzag varint, first value absolute
	colTimeNsec = 1 // uvarint
	colNode     = 2 // dict index, uvarint
)

// CE columns beyond the shared ones.
const (
	colCESlot     = 3 // dict index, uvarint
	colCESocket   = 4
	colCERank     = 5
	colCEBank     = 6
	colCERowRaw   = 7
	colCECol      = 8
	colCEBitPos   = 9
	colCEAddr     = 10
	colCESyndrome = 11
	numCECols     = 12
)

// DUE columns.
const (
	colDUECause = 3
	colDUEAddr  = 4
	colDUEFatal = 5
	numDUECols  = 6
)

// HET columns.
const (
	colHETType     = 3
	colHETSeverity = 4
	colHETAddr     = 5
	numHETCols     = 6
)

// Dictionary-table pseudo-columns (always first=0, count=table size).
const (
	colNodeDict = 200
	colSlotDict = 201
)

// encoding is how a column stores its values.
type encoding byte

const (
	encVarint   encoding = iota // zigzag varints
	encUvarint                  // uvarints, kept as their bit patterns
	encDelta                    // zigzag varint deltas, restarting at each block
	encNodeDict                 // uvarint indexes into the kind's node dictionary
	encSlotDict                 // uvarint indexes into the slot dictionary
	encByte                     // one raw byte per record
)

// encodings lists each kind's column encodings by column id.
var encodings = [kindHET + 1][]encoding{
	kindCE: {
		colTimeSec: encDelta, colTimeNsec: encUvarint, colNode: encNodeDict, colCESlot: encSlotDict,
		colCESocket: encVarint, colCERank: encVarint, colCEBank: encVarint, colCERowRaw: encVarint,
		colCECol: encVarint, colCEBitPos: encVarint, colCEAddr: encUvarint, colCESyndrome: encByte,
	},
	kindDUE: {
		colTimeSec: encDelta, colTimeNsec: encUvarint, colNode: encNodeDict,
		colDUECause: encVarint, colDUEAddr: encUvarint, colDUEFatal: encByte,
	},
	kindHET: {
		colTimeSec: encDelta, colTimeNsec: encUvarint, colNode: encNodeDict,
		colHETType: encVarint, colHETSeverity: encVarint, colHETAddr: encUvarint,
	},
}

// Records bundles the three typed record streams one file holds.
type Records struct {
	CEs  []mce.CERecord
	DUEs []mce.DUERecord
	HETs []het.Record
}

// CEField names one field of a CE record, as the format's CE columns
// store it. Time is split into its Unix seconds and its nanoseconds.
type CEField byte

// The CE fields; each is the id of the column that stores it.
const (
	CETimeSec  CEField = colTimeSec
	CETimeNsec CEField = colTimeNsec
	CENode     CEField = colNode
	CESlot     CEField = colCESlot
	CESocket   CEField = colCESocket
	CERank     CEField = colCERank
	CEBank     CEField = colCEBank
	CERowRaw   CEField = colCERowRaw
	CECol      CEField = colCECol
	CEBitPos   CEField = colCEBitPos
	CEAddr     CEField = colCEAddr
	CESyndrome CEField = colCESyndrome
)

// CEColumns is column-wise read access to a sequence of CE records, the
// one source the CE encoder reads. A holder of records in another layout
// than []mce.CERecord (the stream engine's packed log) implements it to
// encode them without materializing records.
type CEColumns interface {
	// Len is the number of records.
	Len() int
	// Column fills dst with field f of records [first, first+len(dst)).
	// Addr is stored as its uint64 bit pattern.
	Column(f CEField, first int, dst []int64)
}

// CESlice is a CE record slice as a CEColumns source.
type CESlice []mce.CERecord

// Len implements CEColumns.
func (s CESlice) Len() int { return len(s) }

// Column implements CEColumns.
func (s CESlice) Column(f CEField, first int, dst []int64) {
	rs := s[first : first+len(dst)]
	switch f {
	case CETimeSec:
		for i := range rs {
			dst[i] = rs[i].Time.Unix()
		}
	case CETimeNsec:
		for i := range rs {
			dst[i] = int64(rs[i].Time.Nanosecond())
		}
	case CENode:
		for i := range rs {
			dst[i] = int64(rs[i].Node)
		}
	case CESlot:
		for i := range rs {
			dst[i] = int64(rs[i].Slot)
		}
	case CESocket:
		for i := range rs {
			dst[i] = int64(rs[i].Socket)
		}
	case CERank:
		for i := range rs {
			dst[i] = int64(rs[i].Rank)
		}
	case CEBank:
		for i := range rs {
			dst[i] = int64(rs[i].Bank)
		}
	case CERowRaw:
		for i := range rs {
			dst[i] = int64(rs[i].RowRaw)
		}
	case CECol:
		for i := range rs {
			dst[i] = int64(rs[i].Col)
		}
	case CEBitPos:
		for i := range rs {
			dst[i] = int64(rs[i].BitPos)
		}
	case CEAddr:
		for i := range rs {
			dst[i] = int64(rs[i].Addr)
		}
	case CESyndrome:
		for i := range rs {
			dst[i] = int64(rs[i].Syndrome)
		}
	default:
		panic(fmt.Sprintf("colfmt: unknown CE field %d", f))
	}
}

// CESink is column-wise write access to a sequence of CE records, the
// one target the CE decoder writes: the mirror of CEColumns. A holder of
// records in another layout than []mce.CERecord (the stream engine's
// packed log) implements it to decode into that layout directly.
type CESink interface {
	// SetLen is called once, before any column, with the number of
	// records.
	SetLen(n int)
	// SetColumn stores vs as field f of records [first, first+len(vs)).
	// Each field's values arrive in record order, every record's once;
	// the fields themselves may arrive in any order. Addr and the
	// nanoseconds arrive as their uvarint's bit pattern. An error
	// rejects the file.
	SetColumn(f CEField, first int, vs []int64) error
}

// SetLen implements CESink.
func (s *CESlice) SetLen(n int) { *s = make(CESlice, n) }

// SetColumn implements CESink the way Decode has always filled records:
// values are stored unchecked, and a record's nanoseconds fold into the
// seconds already stored (seconds stored after them reset them to 0).
func (s *CESlice) SetColumn(f CEField, first int, vs []int64) error {
	rs := (*s)[first : first+len(vs)]
	switch f {
	case CETimeSec:
		for i, v := range vs {
			rs[i].Time = time.Unix(v, 0).UTC()
		}
	case CETimeNsec:
		for i, v := range vs {
			rs[i].Time = time.Unix(rs[i].Time.Unix(), v).UTC()
		}
	case CENode:
		for i, v := range vs {
			rs[i].Node = topology.NodeID(v)
		}
	case CESlot:
		for i, v := range vs {
			rs[i].Slot = topology.Slot(v)
		}
	case CESocket:
		for i, v := range vs {
			rs[i].Socket = int(v)
		}
	case CERank:
		for i, v := range vs {
			rs[i].Rank = int(v)
		}
	case CEBank:
		for i, v := range vs {
			rs[i].Bank = int(v)
		}
	case CERowRaw:
		for i, v := range vs {
			rs[i].RowRaw = int(v)
		}
	case CECol:
		for i, v := range vs {
			rs[i].Col = int(v)
		}
	case CEBitPos:
		for i, v := range vs {
			rs[i].BitPos = int(v)
		}
	case CEAddr:
		for i, v := range vs {
			rs[i].Addr = topology.PhysAddr(v)
		}
	case CESyndrome:
		for i, v := range vs {
			rs[i].Syndrome = uint8(v)
		}
	default:
		return fmt.Errorf("unknown CE field %d", f)
	}
	return nil
}

// Write encodes recs to w. The output is deterministic for given input.
func Write(w io.Writer, recs Records) error {
	return write(w, CESlice(recs.CEs), recs.DUEs, recs.HETs)
}

// WriteCE encodes the CE records src holds as a CE-only file: the bytes
// Write produces for Records{CEs: the same records}.
func WriteCE(w io.Writer, src CEColumns) error {
	return write(w, src, nil, nil)
}

func write(w io.Writer, ces CEColumns, dues []mce.DUERecord, hets []het.Record) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var hdr [3 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(ces.Len()))
	n += binary.PutUvarint(hdr[n:], uint64(len(dues)))
	n += binary.PutUvarint(hdr[n:], uint64(len(hets)))
	if _, err := bw.Write(hdr[:n]); err != nil {
		return err
	}
	enc := &encoder{w: bw}
	enc.writeCE(ces)
	enc.writeDUE(dues)
	enc.writeHET(hets)
	if enc.err == nil {
		enc.err = bw.WriteByte(kindEnd)
	}
	if enc.err != nil {
		return fmt.Errorf("colfmt: write: %w", enc.err)
	}
	return bw.Flush()
}

type encoder struct {
	w       *bufio.Writer
	scratch []byte
	err     error
}

// block emits one column block: header varints, payload, trailing CRC32
// over both.
func (e *encoder) block(kind, col byte, first, count int, payload []byte) {
	if e.err != nil {
		return
	}
	var hdr [2 + 3*binary.MaxVarintLen64]byte
	hdr[0], hdr[1] = kind, col
	n := 2
	n += binary.PutUvarint(hdr[n:], uint64(first))
	n += binary.PutUvarint(hdr[n:], uint64(count))
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:n])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	if _, e.err = e.w.Write(hdr[:n]); e.err != nil {
		return
	}
	if _, e.err = e.w.Write(payload); e.err != nil {
		return
	}
	_, e.err = e.w.Write(tail[:])
}

// column chunks one column of n records into blocks, calling encode to
// append record i's value to the payload.
func (e *encoder) column(kind, col byte, n int, encode func(dst []byte, i int) []byte) {
	for first := 0; first < n; first += blockRecords {
		count := min(blockRecords, n-first)
		p := e.scratch[:0]
		for i := first; i < first+count; i++ {
			p = encode(p, i)
		}
		e.block(kind, col, first, count, p)
		e.scratch = p
	}
}

// dict builds a first-appearance dictionary over vals and emits its table
// block; the returned index map drives the per-record index column.
func (e *encoder) dict(kind, col byte, vals func(i int) int, n int) map[int]uint64 {
	idx := make(map[int]uint64)
	p := e.scratch[:0]
	for i := 0; i < n; i++ {
		v := vals(i)
		if _, ok := idx[v]; !ok {
			idx[v] = uint64(len(idx))
			p = binary.AppendVarint(p, int64(v))
		}
	}
	e.block(kind, col, 0, len(idx), p)
	e.scratch = p
	return idx
}

// timeColumns emits the shared delta-seconds and nanoseconds columns.
func (e *encoder) timeColumns(kind byte, n int, at func(i int) time.Time) {
	var prev int64
	// Delta state must reset at block boundaries so each block decodes
	// independently; track the previous block's boundary via closure over
	// the record index.
	e.column(kind, colTimeSec, n, func(dst []byte, i int) []byte {
		sec := at(i).Unix()
		if i%blockRecords == 0 {
			prev = 0
		}
		dst = binary.AppendVarint(dst, sec-prev)
		prev = sec
		return dst
	})
	e.column(kind, colTimeNsec, n, func(dst []byte, i int) []byte {
		return binary.AppendUvarint(dst, uint64(at(i).Nanosecond()))
	})
}

// ceEncoder streams CE columns out of a CEColumns source one block of
// field values at a time.
type ceEncoder struct {
	*encoder
	src  CEColumns
	vals []int64
}

// each fills vals with field f one block at a time and hands fn the
// block's first record index and values.
func (c *ceEncoder) each(f CEField, fn func(first int, vs []int64)) {
	for first, n := 0, c.src.Len(); first < n; first += blockRecords {
		vs := c.vals[:min(blockRecords, n-first)]
		c.src.Column(f, first, vs)
		fn(first, vs)
	}
}

// column emits field f as column blocks, put appending one block's
// values to its payload.
func (c *ceEncoder) column(f CEField, put func(p []byte, vs []int64) []byte) {
	c.each(f, func(first int, vs []int64) {
		p := put(c.scratch[:0], vs)
		c.block(kindCE, byte(f), first, len(vs), p)
		c.scratch = p
	})
}

// dict emits field f's first-appearance dictionary block under col and
// returns the value -> index map its index column encodes with.
func (c *ceEncoder) dict(f CEField, col byte) map[int64]uint64 {
	idx := make(map[int64]uint64)
	p := c.scratch[:0]
	c.each(f, func(_ int, vs []int64) {
		for _, v := range vs {
			if _, ok := idx[v]; !ok {
				idx[v] = uint64(len(idx))
				p = binary.AppendVarint(p, v)
			}
		}
	})
	c.block(kindCE, col, 0, len(idx), p)
	c.scratch = p
	return idx
}

func (e *encoder) writeCE(src CEColumns) {
	n := src.Len()
	if n == 0 {
		return
	}
	c := &ceEncoder{encoder: e, src: src, vals: make([]int64, min(n, blockRecords))}
	nodeIdx := c.dict(CENode, colNodeDict)
	slotIdx := c.dict(CESlot, colSlotDict)
	c.column(CETimeSec, func(p []byte, vs []int64) []byte {
		// Deltas restart at every block, so each block decodes alone.
		prev := int64(0)
		for _, v := range vs {
			p = binary.AppendVarint(p, v-prev)
			prev = v
		}
		return p
	})
	c.column(CETimeNsec, appendUvarints)
	for _, d := range []struct {
		f   CEField
		idx map[int64]uint64
	}{{CENode, nodeIdx}, {CESlot, slotIdx}} {
		c.column(d.f, func(p []byte, vs []int64) []byte {
			for _, v := range vs {
				p = binary.AppendUvarint(p, d.idx[v])
			}
			return p
		})
	}
	for _, f := range []CEField{CESocket, CERank, CEBank, CERowRaw, CECol, CEBitPos} {
		c.column(f, func(p []byte, vs []int64) []byte {
			for _, v := range vs {
				p = binary.AppendVarint(p, v)
			}
			return p
		})
	}
	c.column(CEAddr, appendUvarints)
	c.column(CESyndrome, func(p []byte, vs []int64) []byte {
		for _, v := range vs {
			p = append(p, byte(v))
		}
		return p
	})
}

// appendUvarints appends each value's uint64 bit pattern as a uvarint.
func appendUvarints(p []byte, vs []int64) []byte {
	for _, v := range vs {
		p = binary.AppendUvarint(p, uint64(v))
	}
	return p
}

func (e *encoder) writeDUE(dues []mce.DUERecord) {
	n := len(dues)
	if n == 0 {
		return
	}
	nodeIdx := e.dict(kindDUE, colNodeDict, func(i int) int { return int(dues[i].Node) }, n)
	e.timeColumns(kindDUE, n, func(i int) time.Time { return dues[i].Time })
	e.column(kindDUE, colNode, n, func(dst []byte, i int) []byte {
		return binary.AppendUvarint(dst, nodeIdx[int(dues[i].Node)])
	})
	e.column(kindDUE, colDUECause, n, func(dst []byte, i int) []byte {
		return binary.AppendVarint(dst, int64(dues[i].Cause))
	})
	e.column(kindDUE, colDUEAddr, n, func(dst []byte, i int) []byte {
		return binary.AppendUvarint(dst, uint64(dues[i].Addr))
	})
	e.column(kindDUE, colDUEFatal, n, func(dst []byte, i int) []byte {
		if dues[i].Fatal {
			return append(dst, 1)
		}
		return append(dst, 0)
	})
}

func (e *encoder) writeHET(hets []het.Record) {
	n := len(hets)
	if n == 0 {
		return
	}
	nodeIdx := e.dict(kindHET, colNodeDict, func(i int) int { return int(hets[i].Node) }, n)
	e.timeColumns(kindHET, n, func(i int) time.Time { return hets[i].Time })
	e.column(kindHET, colNode, n, func(dst []byte, i int) []byte {
		return binary.AppendUvarint(dst, nodeIdx[int(hets[i].Node)])
	})
	e.column(kindHET, colHETType, n, func(dst []byte, i int) []byte {
		return binary.AppendVarint(dst, int64(hets[i].Type))
	})
	e.column(kindHET, colHETSeverity, n, func(dst []byte, i int) []byte {
		return binary.AppendVarint(dst, int64(hets[i].Severity))
	})
	e.column(kindHET, colHETAddr, n, func(dst []byte, i int) []byte {
		return binary.AppendUvarint(dst, uint64(hets[i].Addr))
	})
}

// Read decodes a colfmt stream. The whole input is buffered: colfmt files
// are compact (a few bytes per record) and the decoder validates
// per-block checksums before trusting any byte.
func Read(r io.Reader) (Records, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Records{}, fmt.Errorf("colfmt: read: %w", err)
	}
	return Decode(data)
}

// Decode decodes an in-memory colfmt file.
func Decode(data []byte) (Records, error) {
	var recs Records
	ces := CESlice(nil)
	d := decoder{data: data, ce: &ces, recs: &recs}
	if err := d.run(); err != nil {
		return Records{}, err
	}
	recs.CEs = ces
	return recs, nil
}

// DecodeCE decodes a CE-only file (what WriteCE writes) into dst, one
// block of field values at a time. A file holding DUE or HET records is
// rejected, and so is the file when dst rejects a value. The checks
// Decode makes (magic, counts, checksums, dictionary indexes, block
// order and coverage, trailing bytes) are the same walk's.
func DecodeCE(data []byte, dst CESink) error {
	d := decoder{data: data, ce: dst}
	return d.run()
}

// decoder walks a colfmt file block by block and decodes every column
// the same way: CE values go to ce, DUE and HET values into recs (nil
// for a CE-only decode).
type decoder struct {
	data []byte
	off  int
	ce   CESink
	recs *Records
	// vals holds the values the walker decodes before storing them.
	vals []int64
}

// valueRun bounds how many values the walker decodes before storing
// them: small enough to stay in cache between the two.
const valueRun = 1024

var errShort = errors.New("truncated")

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, errShort
	}
	d.off += n
	return v, nil
}

func (d *decoder) run() error {
	if !Sniff(d.data) {
		return errors.New("colfmt: bad magic")
	}
	d.off = MagicLen
	var counts [3]uint64
	for i := range counts {
		v, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("colfmt: header: %w", err)
		}
		counts[i] = v
	}
	// Every record costs at least one payload byte in each of its kind's
	// columns, so the counts are bounded by the bytes left: a larger
	// count is corruption, not a huge file, and must not size an
	// allocation. The bound subtracts as it goes, so no sum overflows.
	left := uint64(len(d.data) - d.off)
	for i, cols := range [3]uint64{numCECols, numDUECols, numHETCols} {
		if counts[i] > left/cols {
			return fmt.Errorf("colfmt: header: %d records of kind %d need more than the %d bytes left", counts[i], i+kindCE, left)
		}
		left -= counts[i] * cols
	}
	if d.recs == nil {
		// DUE and HET blocks are still checked as Decode checks them:
		// with no records to cover, such a block can only be empty.
		if counts[1]+counts[2] > 0 {
			return fmt.Errorf("colfmt: %d DUE and %d HET records in a CE-only file", counts[1], counts[2])
		}
	} else {
		d.recs.DUEs = make([]mce.DUERecord, counts[1])
		d.recs.HETs = make([]het.Record, counts[2])
	}
	d.ce.SetLen(int(counts[0]))
	d.vals = make([]int64, min(max(counts[0], counts[1], counts[2]), valueRun))
	ks := kindState{
		kindCE:  {nCols: numCECols, n: int(counts[0])},
		kindDUE: {nCols: numDUECols, n: int(counts[1])},
		kindHET: {nCols: numHETCols, n: int(counts[2])},
	}
	for {
		if d.off >= len(d.data) {
			return errors.New("colfmt: missing end marker")
		}
		kind := d.data[d.off]
		if kind == kindEnd {
			d.off++
			break
		}
		if err := d.block(kind, &ks); err != nil {
			return err
		}
	}
	if d.off != len(d.data) {
		return fmt.Errorf("colfmt: %d trailing bytes", len(d.data)-d.off)
	}
	for kind := kindCE; kind <= kindHET; kind++ {
		st := &ks[kind]
		if st.n == 0 {
			continue
		}
		for col := 0; col < st.nCols; col++ {
			if st.progress[col] != st.n {
				return fmt.Errorf("colfmt: kind %d column %d covers %d of %d records", kind, col, st.progress[col], st.n)
			}
		}
	}
	return nil
}

// kindDecode tracks one kind's decode progress: how far each column has
// been filled (blocks must arrive in order, gap-free) and the
// dictionaries its index columns resolve against.
type kindDecode struct {
	nCols    int
	n        int
	progress [numCECols]int
	nodeDict []int64
	slotDict []int64
}

type kindState [kindHET + 1]kindDecode

func (d *decoder) block(kind byte, ks *kindState) error {
	blockStart := d.off
	if kind > kindHET {
		return fmt.Errorf("colfmt: unknown record kind %d at offset %d", kind, d.off)
	}
	if d.off+2 > len(d.data) {
		return errors.New("colfmt: truncated block header")
	}
	col := d.data[d.off+1]
	d.off += 2
	first, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("colfmt: block header: %w", err)
	}
	count, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("colfmt: block header: %w", err)
	}
	plen, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("colfmt: block header: %w", err)
	}
	if plen > uint64(len(d.data)-d.off) {
		return fmt.Errorf("colfmt: block payload of %d bytes exceeds remaining input", plen)
	}
	payload := d.data[d.off : d.off+int(plen)]
	d.off += int(plen)
	if d.off+4 > len(d.data) {
		return errors.New("colfmt: truncated block checksum")
	}
	want := binary.LittleEndian.Uint32(d.data[d.off : d.off+4])
	d.off += 4
	if crc := crc32.ChecksumIEEE(d.data[blockStart : d.off-4]); crc != want {
		return fmt.Errorf("colfmt: kind %d column %d block at offset %d: checksum mismatch", kind, col, blockStart)
	}

	st := &ks[kind]
	if col == colNodeDict || col == colSlotDict {
		if first != 0 {
			return fmt.Errorf("colfmt: dictionary block with first=%d", first)
		}
		// Each entry is a varint of at least one byte.
		if count > uint64(len(payload)) {
			return fmt.Errorf("colfmt: kind %d dictionary %d: %d entries in a %d-byte payload", kind, col, count, len(payload))
		}
		table := make([]int64, count)
		if off, ok := varints(payload, 0, table); !ok {
			return fmt.Errorf("colfmt: kind %d dictionary %d: truncated entry", kind, col)
		} else if off != len(payload) {
			return fmt.Errorf("colfmt: kind %d dictionary %d: trailing payload", kind, col)
		}
		if col == colNodeDict {
			st.nodeDict = table
		} else {
			st.slotDict = table
		}
		return nil
	}
	if int(col) >= st.nCols {
		return fmt.Errorf("colfmt: kind %d: unknown column %d", kind, col)
	}
	if first != uint64(st.progress[col]) {
		return fmt.Errorf("colfmt: kind %d column %d: block starts at %d, expected %d", kind, col, first, st.progress[col])
	}
	// first is at most n here, so n-first cannot wrap; first+count can.
	if count > uint64(st.n)-first {
		return fmt.Errorf("colfmt: kind %d column %d: block of %d records at %d exceeds %d records", kind, col, count, first, st.n)
	}
	if err := d.column(kind, col, int(first), int(count), payload, st); err != nil {
		return err
	}
	st.progress[col] += int(count)
	return nil
}

// uvarints decodes len(vs) uvarints from p[off:], each kept as its bit
// pattern, and returns the offset past them; ok is false where
// binary.Uvarint fails. One-byte values, most of a column's, skip the
// general decoder.
func uvarints(p []byte, off int, vs []int64) (int, bool) {
	for i := range vs {
		if off < len(p) && p[off] < 0x80 {
			vs[i] = int64(p[off])
			off++
			continue
		}
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return off, false
		}
		vs[i] = int64(v)
		off += n
	}
	return off, true
}

// varints is uvarints for zigzag varints, decoded as binary.Varint does.
func varints(p []byte, off int, vs []int64) (int, bool) {
	off, ok := uvarints(p, off, vs)
	for i, u := range vs {
		vs[i] = int64(uint64(u)>>1) ^ -(u & 1)
	}
	return off, ok
}

var errDictIndex = errors.New("dictionary index out of range")

// resolve maps dictionary indexes to their entries in place.
func resolve(vs, dict []int64) error {
	for i, v := range vs {
		if uint64(v) >= uint64(len(dict)) {
			return errDictIndex
		}
		vs[i] = dict[v]
	}
	return nil
}

// column decodes one checksum-verified column block and hands its values
// to set a run at a time: seconds as absolute values (the deltas restart
// at every block), dictionary columns resolved, and uvarint columns (the
// nanoseconds, the addresses) as their bit patterns.
func (d *decoder) column(kind, col byte, first, count int, payload []byte, st *kindDecode) error {
	fail := func(err error) error {
		return fmt.Errorf("colfmt: kind %d column %d at record %d: %w", kind, col, first, err)
	}
	enc := encodings[kind][col]
	if enc == encByte && len(payload) != count {
		return fail(fmt.Errorf("%d payload bytes for %d records", len(payload), count))
	}
	off, prev := 0, int64(0)
	for done := 0; done < count; {
		vs := d.vals[:min(len(d.vals), count-done)]
		ok := true
		var err error
		switch enc {
		case encDelta:
			if off, ok = varints(payload, off, vs); ok {
				for i := range vs {
					prev += vs[i]
					vs[i] = prev
				}
			}
		case encUvarint:
			off, ok = uvarints(payload, off, vs)
		case encNodeDict, encSlotDict:
			dict := st.nodeDict
			if enc == encSlotDict {
				dict = st.slotDict
			}
			if off, ok = uvarints(payload, off, vs); ok {
				err = resolve(vs, dict)
			}
		case encByte:
			for i := range vs {
				vs[i] = int64(payload[off+i])
			}
			off += len(vs)
		default:
			off, ok = varints(payload, off, vs)
		}
		if !ok {
			err = errShort
		}
		if err != nil {
			return fail(err)
		}
		if err := d.set(kind, col, first+done, vs); err != nil {
			return fmt.Errorf("colfmt: %w", err)
		}
		done += len(vs)
	}
	if off != len(payload) {
		return fail(fmt.Errorf("%d trailing payload bytes", len(payload)-off))
	}
	return nil
}

// set stores vs as column col of records [first, first+len(vs)) of one
// kind: CE values go to the sink, DUE and HET values into Decode's
// records. Block checks keep the range within the kind's header count,
// so a CE-only decode, whose DUE and HET counts are 0, never gets here
// with DUE or HET values.
func (d *decoder) set(kind, col byte, first int, vs []int64) error {
	switch kind {
	case kindCE:
		return d.ce.SetColumn(CEField(col), first, vs)
	case kindDUE:
		setDUE(col, d.recs.DUEs[first:first+len(vs)], vs)
	case kindHET:
		setHET(col, d.recs.HETs[first:first+len(vs)], vs)
	}
	return nil
}

// setDUE stores vs as column col of rs, as CESlice.SetColumn stores CE
// values.
func setDUE(col byte, rs []mce.DUERecord, vs []int64) {
	switch col {
	case colTimeSec:
		for i, v := range vs {
			rs[i].Time = time.Unix(v, 0).UTC()
		}
	case colTimeNsec:
		for i, v := range vs {
			rs[i].Time = time.Unix(rs[i].Time.Unix(), v).UTC()
		}
	case colNode:
		for i, v := range vs {
			rs[i].Node = topology.NodeID(v)
		}
	case colDUECause:
		for i, v := range vs {
			rs[i].Cause = faultmodel.DUECause(v)
		}
	case colDUEAddr:
		for i, v := range vs {
			rs[i].Addr = topology.PhysAddr(v)
		}
	case colDUEFatal:
		for i, v := range vs {
			rs[i].Fatal = v != 0
		}
	}
}

// setHET stores vs as column col of rs, as CESlice.SetColumn stores CE
// values.
func setHET(col byte, rs []het.Record, vs []int64) {
	switch col {
	case colTimeSec:
		for i, v := range vs {
			rs[i].Time = time.Unix(v, 0).UTC()
		}
	case colTimeNsec:
		for i, v := range vs {
			rs[i].Time = time.Unix(rs[i].Time.Unix(), v).UTC()
		}
	case colNode:
		for i, v := range vs {
			rs[i].Node = topology.NodeID(v)
		}
	case colHETType:
		for i, v := range vs {
			rs[i].Type = het.EventType(v)
		}
	case colHETSeverity:
		for i, v := range vs {
			rs[i].Severity = het.Severity(v)
		}
	case colHETAddr:
		for i, v := range vs {
			rs[i].Addr = topology.PhysAddr(v)
		}
	}
}
