package syslog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"time"

	"repro/internal/mce"
)

// ScanStats counts what a scan encountered, by category, so the ingest
// path can report the *shape* of a log's corruption — the accounting the
// field studies behind the paper spend real effort on before any analysis
// runs.
type ScanStats struct {
	// Lines is the total number of input lines.
	Lines int
	// CEs, DUEs and HETs count the well-formed records delivered.
	CEs  int
	DUEs int
	HETs int
	// Other counts unrecognized kernel chatter (not an error).
	Other int
	// Malformed counts record lines that failed to parse; it is always
	// Truncated + Garbage.
	Malformed int
	// Truncated counts malformed lines classified as cut short
	// (ErrTruncated); Garbage counts the garbled remainder (ErrGarbled).
	Truncated int
	Garbage   int
	// Duplicated counts record lines suppressed as exact duplicates of a
	// recent line (syslog relay at-least-once delivery). Only counted
	// when a dedup window is configured.
	Duplicated int
	// Reordered counts records that arrived after a later-timestamped
	// record but were resequenced within the reorder window (recovered,
	// and included in the kind counts above).
	Reordered int
	// DroppedOutOfOrder counts records that arrived too late for the
	// reorder window and were discarded to preserve output time order.
	DroppedOutOfOrder int
}

// ScanConfig tunes the scanner's corruption tolerance. The zero value is
// the strict-ordering, no-tolerance behaviour of the raw parser: no
// dedup, no reordering, malformed lines skipped and counted.
type ScanConfig struct {
	// Strict makes the first malformed record line a scan error
	// (Scan returns false and Err reports the parse failure) instead of
	// a counted skip.
	Strict bool
	// DedupWindow suppresses a record line identical to one of the last
	// N record lines (0 disables). Real repeated errors can render as
	// identical lines too; suppressions are counted, not silent.
	DedupWindow int
	// ReorderWindow buffers records and emits them in timestamp order,
	// tolerating arrival skew up to the window (0 disables). Records
	// later than the window are dropped and counted.
	ReorderWindow time.Duration
}

// tolerator is the corruption-tolerance state machine shared by the
// serial Scanner and the BlockScanner: the dedup ring, the reorder heap,
// the ready queue, and the accounting. It consumes parse outcomes one
// line at a time in input order — where the line's bytes came from (a
// bufio cursor or a merged block pipeline) is the caller's business — so
// any frontend that feeds it the same line sequence produces bit-identical
// records and ScanStats.
//
// Records in flight live in slab and never move: the decoder writes each
// line's record into a free slot, and the reorder heap and the ready
// queue hold slot indices, so a record is not copied between parse and
// delivery.
type tolerator struct {
	cfg   ScanConfig
	stats ScanStats

	// dedup ring over recent record lines; entry buffers are reused.
	// hashes[i] is the maphash of recent[i] under seed, so a probe runs
	// bytes.Equal only on a hash match. The hashes are recomputed on
	// restore, never persisted.
	recent [][]byte
	hashes []uint64
	seed   maphash.Seed
	rpos   int

	// slab holds the records in flight; free lists its unused slots. out
	// is the slot of the record last popped, kept until the next pop so
	// it stays readable between Scan calls (-1 before the first).
	slab []Parsed
	free []int32
	out  int32

	// reorder machinery (cfg.ReorderWindow > 0).
	pending recHeap
	// ready is the emit queue; rhead indexes the next slot so pops never
	// re-slice the front (which would shrink the backing array and force
	// a reallocation per record). Once drained, both reset and the array
	// is reused.
	ready     []int32
	rhead     int
	maxSeen   time.Time
	watermark time.Time
}

func newTolerator(cfg ScanConfig) tolerator {
	// The seed is set even with dedup off: a checkpoint restored under a
	// different window still brings its ring lines, which restore hashes.
	t := tolerator{cfg: cfg, seed: maphash.MakeSeed(), out: -1}
	if cfg.DedupWindow > 0 {
		t.recent = make([][]byte, 0, cfg.DedupWindow)
		t.hashes = make([]uint64, 0, cfg.DedupWindow)
	}
	return t
}

// alloc returns a free slab slot for the next record.
func (t *tolerator) alloc() int32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		return slot
	}
	t.slab = append(t.slab, Parsed{})
	return int32(len(t.slab) - 1)
}

// feed consumes one line's parse outcome, already decoded into slab slot
// slot, which it takes over. The returned error is non-nil only in strict
// mode on a malformed record line; it is the scan-fatal error the
// frontend must surface through Err.
func (t *tolerator) feed(line []byte, slot int32, perr error) error {
	t.stats.Lines++
	if perr != nil {
		t.free = append(t.free, slot)
		t.stats.Malformed++
		switch {
		case errors.Is(perr, ErrTruncated):
			t.stats.Truncated++
		default:
			t.stats.Garbage++
		}
		if t.cfg.Strict {
			return fmt.Errorf("syslog: line %d: %w", t.stats.Lines, perr)
		}
		return nil
	}
	if t.slab[slot].Kind == KindOther {
		t.free = append(t.free, slot)
		t.stats.Other++
		return nil
	}
	if t.isDuplicate(line) {
		t.free = append(t.free, slot)
		t.stats.Duplicated++
		return nil
	}
	t.accept(slot)
	return nil
}

// pop makes the next ready record current, if any, updating the kind
// counts; the previous current record's slot is freed.
func (t *tolerator) pop() bool {
	if t.rhead >= len(t.ready) {
		return false
	}
	slot := t.ready[t.rhead]
	t.rhead++
	if t.rhead == len(t.ready) {
		t.ready = t.ready[:0]
		t.rhead = 0
	}
	if t.out >= 0 {
		t.free = append(t.free, t.out)
	}
	t.out = slot
	t.countKind(t.slab[slot].Kind)
	return true
}

// current returns the record the last pop made current.
func (t *tolerator) current() Parsed {
	if t.out < 0 {
		return Parsed{}
	}
	return t.slab[t.out]
}

// accept routes a parsed record through the reorder buffer (or straight
// to ready when reordering is disabled).
func (t *tolerator) accept(slot int32) {
	if t.cfg.ReorderWindow <= 0 {
		t.ready = append(t.ready, slot)
		return
	}
	ts := timeOf(&t.slab[slot])
	if !t.watermark.IsZero() && ts.Before(t.watermark) {
		// Its slot has already been emitted; resequencing would break
		// output time order.
		t.free = append(t.free, slot)
		t.stats.DroppedOutOfOrder++
		return
	}
	if ts.Before(t.maxSeen) {
		t.stats.Reordered++
	}
	if ts.After(t.maxSeen) {
		t.maxSeen = ts
	}
	t.pending.push(keyOf(ts, slot))
	t.drain(false)
}

// drain moves pending records older than the reorder window (all of them
// at EOF) into the ready queue, advancing the watermark.
func (t *tolerator) drain(all bool) {
	for len(t.pending) > 0 {
		oldest := timeOf(&t.slab[t.pending[0].slot])
		if !all && t.maxSeen.Sub(oldest) < t.cfg.ReorderWindow {
			return
		}
		slot := t.pending.pop()
		t.watermark = timeOf(&t.slab[slot])
		t.ready = append(t.ready, slot)
	}
}

// isDuplicate checks the record line against the dedup ring and records
// it for future checks. Ring entries keep their backing arrays across
// replacements, so a warm ring costs no allocation per line.
func (t *tolerator) isDuplicate(line []byte) bool {
	if t.cfg.DedupWindow <= 0 {
		return false
	}
	h := maphash.Bytes(t.seed, line)
	for i, prev := range t.hashes {
		if prev == h && bytes.Equal(t.recent[i], line) {
			return true
		}
	}
	if len(t.recent) < t.cfg.DedupWindow {
		t.recent = append(t.recent, append([]byte(nil), line...))
		t.hashes = append(t.hashes, h)
	} else {
		t.recent[t.rpos] = append(t.recent[t.rpos][:0], line...)
		t.hashes[t.rpos] = h
		t.rpos = (t.rpos + 1) % t.cfg.DedupWindow
	}
	return false
}

func (t *tolerator) countKind(k Kind) {
	switch k {
	case KindCE:
		t.stats.CEs++
	case KindDUE:
		t.stats.DUEs++
	case KindHET:
		t.stats.HETs++
	}
}

// checkpoint snapshots the tolerance state (deep copy) at the given input
// offset. The pending records keep the heap's array order.
func (t *tolerator) checkpoint(offset int64) Checkpoint {
	cp := Checkpoint{
		Offset:    offset,
		Stats:     t.stats,
		rpos:      t.rpos,
		maxSeen:   t.maxSeen,
		watermark: t.watermark,
	}
	if len(t.recent) > 0 {
		cp.recent = make([][]byte, len(t.recent))
		for i, b := range t.recent {
			cp.recent[i] = append([]byte(nil), b...)
		}
	}
	for _, k := range t.pending {
		cp.pending = append(cp.pending, t.slab[k.slot])
	}
	for _, slot := range t.ready[t.rhead:] {
		cp.ready = append(cp.ready, t.slab[slot])
	}
	return cp
}

// restore loads a checkpoint's tolerance state into a fresh tolerator.
func (t *tolerator) restore(cp Checkpoint) {
	t.stats = cp.Stats
	t.rpos = cp.rpos
	t.maxSeen = cp.maxSeen
	t.watermark = cp.watermark
	if len(cp.recent) > 0 {
		t.recent = make([][]byte, len(cp.recent))
		t.hashes = make([]uint64, len(cp.recent))
		for i, b := range cp.recent {
			t.recent[i] = append([]byte(nil), b...)
			t.hashes[i] = maphash.Bytes(t.seed, b)
		}
	}
	// The pending records come in heap-array order, and keying them in
	// that order preserves the heap invariant; no re-push needed.
	for _, p := range cp.pending {
		slot := t.alloc()
		t.slab[slot] = p
		t.pending = append(t.pending, keyOf(p.Time(), slot))
	}
	for _, p := range cp.ready {
		slot := t.alloc()
		t.slab[slot] = p
		t.ready = append(t.ready, slot)
	}
}

// Scanner streams a syslog and yields parsed records, tolerating (but
// counting) malformed record lines, like the paper's handling of invalid
// telemetry: excluded, accounted for, and expected to be rare. With a
// ScanConfig it additionally absorbs relay duplication and bounded
// arrival reordering.
//
// Scanning is allocation-free per line, with dedup and reordering on as
// well as off: each line is decoded in place from the bufio buffer
// straight into its tolerator slot (no per-line string is ever
// materialized), the dedup ring reuses its entry buffers, and the reorder
// heap and ready queue move slot indices. Only warm-up allocates: first
// sight of a hostname, and growth of the ring, the slab, the heap and the
// ready queue to their steady sizes.
type Scanner struct {
	sc  *bufio.Scanner
	dec Decoder
	tol tolerator
	err error
	eof bool

	// consumed is the byte offset just past the last line the split
	// function handed to Scan — the resume point a Checkpoint captures.
	// The bufio read-ahead beyond it is invisible to this count.
	consumed int64
}

// NewScanner wraps a reader with the zero-tolerance configuration. Lines
// up to 1 MiB are supported.
func NewScanner(r io.Reader) *Scanner {
	return NewScannerConfig(r, ScanConfig{})
}

// NewScannerConfig wraps a reader with explicit corruption tolerance.
func NewScannerConfig(r io.Reader, cfg ScanConfig) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	s := &Scanner{sc: sc, tol: newTolerator(cfg)}
	sc.Split(func(data []byte, atEOF bool) (advance int, token []byte, err error) {
		advance, token, err = bufio.ScanLines(data, atEOF)
		s.consumed += int64(advance)
		return advance, token, err
	})
	return s
}

// Offset returns the byte offset just past the last input line consumed
// by Scan. Input the scanner has read ahead but not yet handed to Scan is
// not counted, so restarting a new Scanner at this offset (with the state
// from Checkpoint) continues the record stream exactly.
func (s *Scanner) Offset() int64 { return s.consumed }

// Checkpoint is a resumable snapshot of a Scanner: the input offset plus
// the tolerance state (dedup ring, reorder buffer, pending emits) that
// spans lines. Taken between Scan calls, it lets a restarted process
// reopen the log, seek to Offset, and Restore to produce the identical
// remaining record sequence — including suppressions and resequencing
// decisions that depend on lines before the offset.
type Checkpoint struct {
	// Offset is the resume position in the input, as per (*Scanner).Offset.
	Offset int64
	// Stats is the accounting at the checkpoint.
	Stats ScanStats

	// recent/rpos snapshot the dedup ring; pending the reorder heap;
	// ready/maxSeen/watermark the emit queue and its time cursors.
	recent    [][]byte
	rpos      int
	pending   []Parsed
	ready     []Parsed
	maxSeen   time.Time
	watermark time.Time
}

// Checkpoint snapshots the scanner between Scan calls. The snapshot is a
// deep copy: further scanning does not mutate it.
func (s *Scanner) Checkpoint() Checkpoint {
	return s.tol.checkpoint(s.consumed)
}

// Restore loads a Checkpoint into a freshly constructed Scanner whose
// reader is positioned at cp.Offset. The scanner must have the same
// ScanConfig as the one that produced the checkpoint and must not have
// scanned yet; subsequent Scan calls yield the same records the original
// scanner would have yielded past the checkpoint.
func (s *Scanner) Restore(cp Checkpoint) error {
	if s.consumed != 0 || s.tol.stats.Lines != 0 {
		return errors.New("syslog: Restore on a scanner that has already scanned")
	}
	s.consumed = cp.Offset
	s.tol.restore(cp)
	return nil
}

// Scan advances to the next well-formed record (CE, DUE or HET), skipping
// noise and malformed lines. It returns false at end of input, on a read
// error, or (in strict mode) on the first malformed record line; see Err.
func (s *Scanner) Scan() bool {
	for {
		if s.tol.pop() {
			return true
		}
		if s.err != nil || s.eof {
			return false
		}
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				s.err = fmt.Errorf("syslog: read: %w", err)
				return false
			}
			s.eof = true
			s.tol.drain(true)
			continue
		}
		line := s.sc.Bytes()
		slot := s.tol.alloc()
		err := s.dec.parse(line, &s.tol.slab[slot])
		if err := s.tol.feed(line, slot, err); err != nil {
			s.err = err
			return false
		}
	}
}

// Record returns the record produced by the last successful Scan.
func (s *Scanner) Record() Parsed { return s.tol.current() }

// CE returns the record produced by the last successful Scan if it is a
// CE, and nil otherwise. The record is the scanner's own and stays valid
// until the next Scan: a consumer that keeps only CEs copies just the CE,
// where Record copies every kind's fields.
func (s *Scanner) CE() *mce.CERecord {
	if t := &s.tol; t.out >= 0 && t.slab[t.out].Kind == KindCE {
		return &t.slab[t.out].CE
	}
	return nil
}

// Stats returns the accounting so far.
func (s *Scanner) Stats() ScanStats { return s.tol.stats }

// Err returns the first read error (or, in strict mode, parse error), if
// any. In lenient mode malformed lines are not errors; they are counted
// in Stats.
func (s *Scanner) Err() error { return s.err }

// recKey is a reorder-heap entry: a slab slot and its record's
// timestamp as Unix seconds and nanoseconds, the order time.Time.Before
// gives the wall-clock times a decoder produces.
type recKey struct {
	sec  int64
	nsec int32
	slot int32
}

func keyOf(ts time.Time, slot int32) recKey {
	return recKey{sec: ts.Unix(), nsec: int32(ts.Nanosecond()), slot: slot}
}

// recHeap is a min-heap of slab slots by timestamp. push and pop are
// container/heap's Push and Pop specialised to recKey: they make the same
// Less calls and the same swaps as container/heap over the records
// themselves, which leaves the same array order (what a Checkpoint
// stores) and pops records with equal timestamps in the same order, while
// each swap moves 16 bytes instead of a record.
type recHeap []recKey

func (h recHeap) Less(i, j int) bool {
	a, b := &h[i], &h[j]
	return a.sec < b.sec || a.sec == b.sec && a.nsec < b.nsec
}

// push adds k and sifts it up (container/heap's up).
func (h *recHeap) push(k recKey) {
	*h = append(*h, k)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.Less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes the minimum and returns its slot: the last element moves to
// the root and sifts down (container/heap's down).
func (h *recHeap) pop() int32 {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.Less(j2, j1) {
			j = j2 // right child
		}
		if !s.Less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	slot := s[n].slot
	*h = s[:n]
	return slot
}
