package syslog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// ErrTailStopped is the terminal "error" a Follower reports once its
// context is cancelled and every complete line has been delivered. It is
// deliberately not io.EOF: a scanner that sees EOF flushes its reorder
// heap as if the log had ended, which would emit records early and change
// resequencing decisions after a resume. A read error leaves the heap
// intact, so a checkpoint taken after the stop resumes exactly.
var ErrTailStopped = errors.New("syslog: tail stopped")

// ErrTailLineTooLong reports an unterminated line exceeding the follower's
// buffer cap; handing out part of it would put the scanner's offset inside
// a line.
var ErrTailLineTooLong = errors.New("syslog: tail: unterminated line exceeds buffer cap")

// maxTailLine caps how many bytes a Follower buffers while waiting for a
// newline — matching the scanner's own maximum line length, since a longer
// line could not be parsed anyway.
const maxTailLine = 1 << 20

// DefaultTailPoll is the idle ceiling used when TailConfig leaves Poll
// zero.
const DefaultTailPoll = 200 * time.Millisecond

// TailConfig tunes a Follower.
type TailConfig struct {
	// Poll is the longest wait between growth checks on an idle log (0
	// means DefaultTailPoll). A follower that watches Path wakes as soon
	// as the log is written and waits the full Poll only when nothing
	// happens; one without a watch sleeps Poll between checks.
	Poll time.Duration
	// Path enables rotation tolerance and the write-woken tail. When set
	// and the reader is an *os.File, the follower watches Path (inotify
	// on Linux) and blocks until the log is written instead of sleeping;
	// where no watch can be set up it sleeps Poll. It stats Path for
	// rotation when the watch reports a move, delete, attribute change or
	// a new file at Path, when a write wake finds nothing new to read,
	// and at every Poll ceiling: an inode change (classic
	// rename-and-recreate rotation) drops the torn partial line, reopens
	// Path from offset 0 and keeps streaming; a same-inode shrink
	// (copytruncate) seeks back to 0. Stream offsets stay monotonic
	// across the switch — FileOffset translates them back into
	// current-file coordinates for checkpointing.
	Path string
	// OnWait, when set, runs on the reading goroutine each time the
	// follower has released every complete line and is about to wait for
	// the log to change: the point where a consumer batching downstream
	// work should flush it, since nothing more arrives until the wait
	// ends.
	OnWait func()
}

// TailStats counts the rotation events a Follower has absorbed.
type TailStats struct {
	// Rotations counts inode changes (file renamed away and recreated).
	Rotations int64
	// Truncations counts same-inode shrinks (copytruncate rotation).
	Truncations int64
	// DroppedPartials counts torn partial lines discarded at a rotation
	// boundary, DroppedBytes their total size. A partial line in the old
	// file can never be completed by bytes of the new one; gluing them
	// would fabricate a record that exists in neither file.
	DroppedPartials int64
	DroppedBytes    int64
}

// Follower adapts a growing log file into an io.Reader that releases only
// whole lines: bytes after the last newline are held back until their
// terminator arrives, so every byte a downstream Scanner consumes — and
// therefore every offset a Checkpoint records — is a line boundary in the
// file. At end of data it waits for growth instead of reporting EOF;
// cancelling the context ends the stream with ErrTailStopped once the
// buffered complete lines are drained, and releases the watch.
//
// Follower is not concurrency-safe; it is read from one scanner loop.
type Follower struct {
	ctx    context.Context
	r      io.Reader
	poll   time.Duration
	onWait func()

	// watch wakes the follower when the log changes (nil: sleep poll).
	// statDue asks for a rotation check at the next idle point: set by a
	// rotation-class event and at every poll ceiling. quietWake marks a
	// write wake; still set at the idle point, it means the write left
	// nothing to read — a truncation, or bytes an earlier read already
	// took — and asks for the same check.
	watch     *tailWatch
	statDue   bool
	quietWake bool

	buf   []byte // raw bytes read from r, not yet handed out
	pos   int    // next byte of buf to hand out
	ready int    // bytes buf[:ready] end on a newline
	chunk []byte // scratch read buffer

	// Rotation tolerance (file == nil when disabled). Stream offsets are
	// the coordinate system the downstream scanner checkpoints in: the
	// count of released bytes, seeded with the initial file position so
	// that before any rotation stream offset == file offset. Each
	// rotation starts a new segment: segStartStream is the stream offset
	// where the current file's bytes begin, segFileBase the file offset
	// they begin at (0 after a reopen, the resume offset at startup).
	path           string
	file           *os.File
	filePos        int64 // next read offset in the current file
	released       int64 // total stream bytes handed out
	segStartStream int64
	segFileBase    int64
	stats          TailStats
}

// NewFollower wraps r (typically an *os.File positioned at the resume
// offset) as a line-complete tail reader. The context governs the
// follower's lifetime; a nil context follows forever. With cfg.Path set
// and r an *os.File, the follower survives log rotation (see TailConfig).
func NewFollower(ctx context.Context, r io.Reader, cfg TailConfig) *Follower {
	if ctx == nil {
		ctx = context.Background()
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = DefaultTailPoll
	}
	f := &Follower{ctx: ctx, r: r, poll: poll, onWait: cfg.OnWait, chunk: make([]byte, 64*1024), statDue: true}
	if cfg.Path != "" {
		if osf, ok := r.(*os.File); ok {
			if pos, err := osf.Seek(0, io.SeekCurrent); err == nil {
				f.path = cfg.Path
				f.file = osf
				f.filePos = pos
				f.released = pos
				f.segStartStream = pos
				f.segFileBase = pos
				f.watch = newTailWatch(ctx, cfg.Path)
			}
		}
	}
	return f
}

// Stats reports the rotation events absorbed so far. Like Read, it must
// be called from the goroutine driving the follower.
func (f *Follower) Stats() TailStats { return f.stats }

// FileOffset translates a stream offset (the coordinate a scanner
// Checkpoint records) into an offset in the currently-open file. ok is
// false when the offset predates the current file — it points into a
// rotated-away segment and must not be used as a resume position.
// Without rotation tolerance the mapping is the identity.
func (f *Follower) FileOffset(stream int64) (int64, bool) {
	if f.file == nil {
		return stream, true
	}
	if stream < f.segStartStream {
		return 0, false
	}
	return f.segFileBase + (stream - f.segStartStream), true
}

// dropPartial discards the held torn line at a rotation boundary.
func (f *Follower) dropPartial() {
	if n := len(f.buf); n > 0 {
		f.stats.DroppedPartials++
		f.stats.DroppedBytes += int64(n)
		f.buf = f.buf[:0]
	}
	f.pos, f.ready = 0, 0
}

// checkRotate inspects the path at an idle point and switches segments
// on rotation or truncation. It reports whether reading should resume
// immediately (new bytes may be waiting at the new position).
func (f *Follower) checkRotate() bool {
	if f.file == nil {
		return false
	}
	cur, err := f.file.Stat()
	if err != nil {
		return false
	}
	disk, err := os.Stat(f.path)
	if err != nil {
		// Mid-rotation window (renamed away, successor not yet created)
		// or deleted outright: keep polling the old handle.
		return false
	}
	if os.SameFile(cur, disk) {
		if disk.Size() < f.filePos {
			// Truncated in place (copytruncate): restart from the top.
			f.dropPartial()
			if _, err := f.file.Seek(0, io.SeekStart); err != nil {
				return false
			}
			f.segStartStream = f.released
			f.segFileBase = 0
			f.filePos = 0
			f.stats.Truncations++
			return true
		}
		return false
	}
	// Inode changed: the log was rotated and recreated. The old handle
	// was already drained to EOF (we only get here at an idle point), so
	// switch to the successor from its beginning, watching it before the
	// first read so no write to it goes unnoticed.
	next, err := os.Open(f.path)
	if err != nil {
		return false
	}
	f.dropPartial()
	f.file.Close()
	f.file = next
	f.r = next
	f.segStartStream = f.released
	f.segFileBase = 0
	f.filePos = 0
	f.stats.Rotations++
	if f.watch != nil && !f.watch.rewatch() {
		f.dropWatch()
	}
	return true
}

// wake says why a wait for the log ended.
type wake int

const (
	// wakeWrite: the log was written.
	wakeWrite wake = iota
	// wakeCheck: a rotation check is due — the path moved, was deleted,
	// recreated or changed attributes, or the poll ceiling passed.
	wakeCheck
	// wakeStopped: the context was cancelled.
	wakeStopped
)

// wait blocks until the log may have changed. Without a watch (or once
// the watch fails) it sleeps the poll ceiling.
func (f *Follower) wait() wake {
	if f.watch != nil {
		if w, ok := f.watch.wait(f.poll); ok {
			return w
		}
		f.dropWatch()
	}
	t := time.NewTimer(f.poll)
	defer t.Stop()
	select {
	case <-f.ctx.Done():
		return wakeStopped
	case <-t.C:
		return wakeCheck
	}
}

// dropWatch releases the watch; the follower sleeps from then on.
func (f *Follower) dropWatch() {
	if f.watch != nil {
		f.watch.close()
		f.watch = nil
	}
}

// Read implements io.Reader over the complete-line stream.
func (f *Follower) Read(p []byte) (int, error) {
	for {
		if f.pos < f.ready {
			n := copy(p, f.buf[f.pos:f.ready])
			f.pos += n
			f.released += int64(n)
			return n, nil
		}
		// All released bytes are consumed; compact the held partial line
		// to the front before reading more.
		if f.pos > 0 {
			f.buf = f.buf[:copy(f.buf, f.buf[f.pos:])]
			f.pos, f.ready = 0, 0
		}
		n, err := f.r.Read(f.chunk)
		if n > 0 {
			f.quietWake = false
			f.filePos += int64(n)
			f.buf = append(f.buf, f.chunk[:n]...)
			if i := bytes.LastIndexByte(f.buf, '\n'); i >= 0 {
				f.ready = i + 1
			}
			if f.ready == 0 && len(f.buf) > maxTailLine {
				return 0, fmt.Errorf("%w (%d bytes)", ErrTailLineTooLong, len(f.buf))
			}
			if f.ready > 0 || err == nil {
				// Either a line is releasable or the reader is still
				// producing mid-line bytes; keep going without polling.
				continue
			}
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		// No complete line available: stop if asked, check for rotation
		// when due, else wait for the log to change.
		if f.ctx.Err() != nil {
			f.dropWatch()
			return 0, ErrTailStopped
		}
		if f.statDue || f.quietWake {
			f.statDue, f.quietWake = false, false
			if f.checkRotate() {
				continue
			}
		}
		if f.onWait != nil {
			f.onWait()
		}
		switch f.wait() {
		case wakeWrite:
			f.quietWake = true
		case wakeCheck:
			f.statDue = true
		case wakeStopped:
			f.dropWatch()
			return 0, ErrTailStopped
		}
	}
}
