package syslog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/parallel"
)

// maxLineBytes is the longest supported input line (content bytes). The
// serial Scanner enforces it through its bufio buffer cap; the block
// pipeline enforces the same limit explicitly so both fail at the same
// line with the same error (bufio.ErrTooLong).
const maxLineBytes = 1 << 20

// DefaultBlockSize is the target block payload for the parallel scanner:
// large enough to amortize the hand-off per block, small enough that a
// handful of blocks in flight stay cache- and memory-friendly.
const DefaultBlockSize = 512 * 1024

// BlockScanConfig tunes a BlockScanner. The embedded ScanConfig carries
// the corruption-tolerance settings shared with the serial Scanner.
type BlockScanConfig struct {
	ScanConfig
	// Workers is the number of parse workers: 0 = GOMAXPROCS (via
	// parallel.Workers), 1 = the serial Scanner code path exactly.
	Workers int
	// BlockSize is the target block payload in bytes (0 = DefaultBlockSize).
	// Blocks always end at a line boundary, so a block can exceed the
	// target by up to one line.
	BlockSize int
}

// BlockScanner is the block-parallel Scanner: a reader goroutine carves
// the input into newline-aligned blocks, a fixed worker pool parses each
// block's lines with a per-worker Decoder (zero-alloc, like the serial
// path), and Scan merges the parsed blocks back in input order before
// feeding the shared tolerator. Because blocks are dispatched to workers
// round-robin and merged in the same round-robin order — the same
// first-shard-first discipline as internal/parallel's ForEachChunk error
// semantics — the line sequence reaching the tolerator is identical to
// the serial Scanner's, so records, ScanStats, errors and checkpoints are
// bit-identical at any worker count.
//
// A BlockScanner whose Workers resolve to 1 delegates to the serial
// Scanner outright: one code path, not two implementations to keep equal.
type BlockScanner struct {
	ser *Scanner // non-nil when workers == 1

	r       io.Reader
	cfg     BlockScanConfig
	workers int
	bsize   int

	tol      tolerator
	err      error
	eof      bool
	consumed int64

	started bool
	closed  bool
	inCh    []chan *parseBlock
	outCh   []chan *parseBlock
	quit    chan struct{}
	wg      sync.WaitGroup
	pool    sync.Pool

	nextW   int         // worker whose output holds the next in-order block
	curBlk  *parseBlock // block currently being fed to the tolerator
	curLine int
}

// parseBlock is one newline-aligned chunk of input moving through the
// pipeline: raw bytes from the reader, parsed line spans from a worker.
type parseBlock struct {
	buf   []byte
	lines []lineSpan
	// readErr is surfaced (wrapped) after the block's lines are consumed:
	// a real read error, or bufio.ErrTooLong for an over-long line (in
	// which case the offending and following lines are absent, exactly as
	// with the serial Scanner's capped bufio buffer).
	readErr error
}

// lineSpan is one parsed line within a block: the content span (CR/LF
// stripped), the bytes consumed from the input including terminators, and
// the parse outcome.
type lineSpan struct {
	off, end int32
	adv      int32
	p        Parsed
	err      error
}

// NewBlockScanner wraps a reader with a block-parallel scanner. The
// pipeline goroutines start lazily on the first Scan, so constructing one
// (e.g. to Restore a checkpoint first) spawns nothing.
func NewBlockScanner(r io.Reader, cfg BlockScanConfig) *BlockScanner {
	w := parallel.Workers(cfg.Workers)
	s := &BlockScanner{r: r, cfg: cfg, workers: w, bsize: cfg.BlockSize}
	if s.bsize <= 0 {
		s.bsize = DefaultBlockSize
	}
	// Cap the block target below the line limit so that whenever the
	// carve loop leaves an over-target buffer uncut, the buffer is
	// provably newline-free and the too-long check in readLoop is exact.
	if s.bsize > maxLineBytes/2 {
		s.bsize = maxLineBytes / 2
	}
	if w <= 1 {
		s.ser = NewScannerConfig(r, cfg.ScanConfig)
		return s
	}
	s.tol = newTolerator(cfg.ScanConfig)
	s.pool.New = func() any { return &parseBlock{} }
	return s
}

// Scan advances to the next well-formed record; see (*Scanner).Scan for
// the contract. The record sequence, stats and errors are bit-identical
// to the serial Scanner over the same input and ScanConfig.
func (s *BlockScanner) Scan() bool {
	if s.ser != nil {
		return s.ser.Scan()
	}
	for {
		if s.tol.pop() {
			return true
		}
		if s.err != nil || s.eof {
			return false
		}
		if !s.started {
			s.start()
		}
		if s.curBlk == nil {
			blk, ok := <-s.outCh[s.nextW]
			if !ok {
				// Blocks arrive strictly round-robin, so a closed output
				// at the in-order position means the whole input has been
				// merged. Workers have all exited; nothing to tear down.
				s.eof = true
				s.tol.drain(true)
				continue
			}
			s.nextW = (s.nextW + 1) % s.workers
			s.curBlk, s.curLine = blk, 0
		}
		blk := s.curBlk
		if s.curLine < len(blk.lines) {
			ln := &blk.lines[s.curLine]
			s.curLine++
			s.consumed += int64(ln.adv)
			slot := s.tol.alloc()
			s.tol.slab[slot] = ln.p
			if err := s.tol.feed(blk.buf[ln.off:ln.end], slot, ln.err); err != nil {
				s.err = err
				s.shutdown()
				return false
			}
			continue
		}
		if blk.readErr != nil {
			s.err = fmt.Errorf("syslog: read: %w", blk.readErr)
			s.shutdown()
			return false
		}
		s.recycle(blk)
		s.curBlk = nil
	}
}

// Record returns the record produced by the last successful Scan.
func (s *BlockScanner) Record() Parsed {
	if s.ser != nil {
		return s.ser.Record()
	}
	return s.tol.current()
}

// Stats returns the accounting so far.
func (s *BlockScanner) Stats() ScanStats {
	if s.ser != nil {
		return s.ser.Stats()
	}
	return s.tol.stats
}

// Err returns the first read error (or, in strict mode, parse error).
func (s *BlockScanner) Err() error {
	if s.ser != nil {
		return s.ser.Err()
	}
	return s.err
}

// Offset returns the byte offset just past the last input line consumed
// by Scan, as per (*Scanner).Offset. Input the pipeline has read ahead is
// not counted.
func (s *BlockScanner) Offset() int64 {
	if s.ser != nil {
		return s.ser.Offset()
	}
	return s.consumed
}

// Checkpoint snapshots the scanner between Scan calls. The checkpoint is
// interchangeable with the serial Scanner's: either implementation can
// Restore it and continue the identical record stream.
func (s *BlockScanner) Checkpoint() Checkpoint {
	if s.ser != nil {
		return s.ser.Checkpoint()
	}
	return s.tol.checkpoint(s.consumed)
}

// Restore loads a Checkpoint into a freshly constructed BlockScanner
// whose reader is positioned at cp.Offset, as per (*Scanner).Restore.
func (s *BlockScanner) Restore(cp Checkpoint) error {
	if s.ser != nil {
		return s.ser.Restore(cp)
	}
	if s.started || s.consumed != 0 || s.tol.stats.Lines != 0 {
		return errors.New("syslog: Restore on a scanner that has already scanned")
	}
	s.consumed = cp.Offset
	s.tol.restore(cp)
	return nil
}

// Close releases the pipeline goroutines. It is only needed when a scan
// is abandoned before Scan returns false; a completed or failed scan has
// already shut the pipeline down. Close is idempotent.
func (s *BlockScanner) Close() {
	if s.ser == nil {
		s.shutdown()
	}
}

func (s *BlockScanner) start() {
	s.started = true
	s.quit = make(chan struct{})
	s.inCh = make([]chan *parseBlock, s.workers)
	s.outCh = make([]chan *parseBlock, s.workers)
	for w := 0; w < s.workers; w++ {
		s.inCh[w] = make(chan *parseBlock, 2)
		s.outCh[w] = make(chan *parseBlock, 2)
	}
	s.wg.Add(1 + s.workers)
	go s.readLoop()
	for w := 0; w < s.workers; w++ {
		go s.workLoop(w)
	}
}

// shutdown aborts the pipeline (if running) and waits for its goroutines.
// Safe to call from the merge side only — the quit channel unblocks any
// producer stuck on a full channel.
func (s *BlockScanner) shutdown() {
	if !s.started || s.closed {
		s.closed = true
		return
	}
	s.closed = true
	close(s.quit)
	s.wg.Wait()
}

func (s *BlockScanner) getBlock() *parseBlock {
	blk := s.pool.Get().(*parseBlock)
	blk.buf = blk.buf[:0]
	blk.lines = blk.lines[:0]
	blk.readErr = nil
	return blk
}

func (s *BlockScanner) recycle(blk *parseBlock) {
	s.pool.Put(blk)
}

// readLoop carves the input into newline-aligned blocks and dispatches
// them round-robin to the workers. Only the final block may end without a
// newline (EOF, or a read error — bufio likewise tokenizes everything
// buffered before surfacing a read error). A line that reaches
// maxLineBytes without a newline aborts the stream with bufio.ErrTooLong
// at exactly the point the serial Scanner's capped buffer would.
func (s *BlockScanner) readLoop() {
	defer s.wg.Done()
	seq := 0
	dispatch := func(b *parseBlock) bool {
		select {
		case s.inCh[seq%s.workers] <- b:
			seq++
			return true
		case <-s.quit:
			return false
		}
	}
	defer func() {
		for _, ch := range s.inCh {
			close(ch)
		}
	}()

	blk := s.getBlock()
	for {
		// Carve off as many full blocks as the buffer holds. The cut is
		// the last newline within the target size — or, when a single
		// line overflows the target, the first newline after it.
		for len(blk.buf) >= s.bsize {
			cut := bytes.LastIndexByte(blk.buf[:s.bsize], '\n')
			if cut < 0 {
				if i := bytes.IndexByte(blk.buf[s.bsize:], '\n'); i >= 0 {
					cut = s.bsize + i
				}
			}
			if cut < 0 {
				break
			}
			next := s.getBlock()
			next.buf = append(next.buf, blk.buf[cut+1:]...)
			blk.buf = blk.buf[:cut+1]
			if !dispatch(blk) {
				return
			}
			blk = next
		}
		// No newline anywhere in an over-long buffer: the line can never
		// be tokenized. (The carve loop above only leaves a newline-free
		// buffer or one below the block size.)
		if len(blk.buf) >= maxLineBytes {
			blk.buf = blk.buf[:0]
			blk.readErr = bufio.ErrTooLong
			dispatch(blk)
			return
		}
		if cap(blk.buf)-len(blk.buf) < 4096 {
			grown := make([]byte, len(blk.buf), 2*cap(blk.buf)+s.bsize)
			copy(grown, blk.buf)
			blk.buf = grown
		}
		n, err := s.r.Read(blk.buf[len(blk.buf):cap(blk.buf)])
		blk.buf = blk.buf[:len(blk.buf)+n]
		if err != nil {
			if err != io.EOF {
				blk.readErr = err
			}
			if len(blk.buf) > 0 || blk.readErr != nil {
				dispatch(blk)
			} else {
				s.recycle(blk)
			}
			return
		}
	}
}

// workLoop parses every line of each incoming block with a worker-local
// Decoder and forwards the block, in arrival order, to this worker's
// output channel for the in-order merge.
func (s *BlockScanner) workLoop(w int) {
	defer s.wg.Done()
	var dec Decoder
	in, out := s.inCh[w], s.outCh[w]
	for blk := range in {
		splitAndParse(&dec, blk)
		select {
		case out <- blk:
		case <-s.quit:
			return
		}
	}
	close(out)
}

// splitAndParse tokenizes a block into lines with bufio.ScanLines
// semantics — '\n' terminated, one trailing '\r' stripped, a final
// unterminated line emitted as-is — and parses each in place.
func splitAndParse(dec *Decoder, blk *parseBlock) {
	buf := blk.buf
	for start := 0; start < len(buf); {
		content := buf[start:]
		adv := int32(len(content))
		if i := bytes.IndexByte(content, '\n'); i >= 0 {
			content = content[:i]
			adv = int32(i + 1)
		}
		lineStart := start
		start += int(adv)
		if len(content) > 0 && content[len(content)-1] == '\r' {
			content = content[:len(content)-1]
		}
		if len(content) >= maxLineBytes {
			// The serial scanner's buffer could never have tokenized
			// this line; it fails the scan there, so this and the lines
			// after it are equally unreachable.
			blk.readErr = bufio.ErrTooLong
			return
		}
		p, err := dec.ParseLineBytes(content)
		blk.lines = append(blk.lines, lineSpan{
			off: int32(lineStart),
			end: int32(lineStart + len(content)),
			adv: adv,
			p:   p,
			err: err,
		})
	}
}
