//go:build linux

package syslog

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// tailWatch wakes a Follower when its log changes: an inotify instance
// with one watch on the followed file (writes, attribute changes, moves,
// deletion) and one on its directory (a file created or moved in under
// the log's name — the successor of a rename rotation). The instance is
// read through the runtime poller, so a wait parks the goroutine rather
// than a thread, and a read deadline sets the idle ceiling.
type tailWatch struct {
	f       *os.File // the inotify instance
	path    string
	base    string
	fileWd  int
	dirWd   int
	release func() bool // unregisters the close-on-cancel hook
	buf     []byte
}

const (
	tailFileMask = syscall.IN_MODIFY | syscall.IN_ATTRIB | syscall.IN_MOVE_SELF | syscall.IN_DELETE_SELF
	tailDirMask  = syscall.IN_CREATE | syscall.IN_MOVED_TO | syscall.IN_ONLYDIR
)

// newTailWatch watches path, or returns nil when no watch can be set up
// (inotify unavailable or out of instances, path gone); the follower
// then sleeps between growth checks. Cancelling ctx closes the watch,
// which also ends a wait in progress.
func newTailWatch(ctx context.Context, path string) *tailWatch {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil
	}
	w := &tailWatch{
		f:    os.NewFile(uintptr(fd), "inotify:"+path),
		path: path,
		base: filepath.Base(path),
		buf:  make([]byte, 4096),
	}
	ok := w.control(func(fd int) error {
		var err error
		if w.dirWd, err = syscall.InotifyAddWatch(fd, filepath.Dir(path), tailDirMask); err != nil {
			return err
		}
		w.fileWd, err = syscall.InotifyAddWatch(fd, path, tailFileMask)
		return err
	})
	if !ok {
		w.f.Close()
		return nil
	}
	w.release = context.AfterFunc(ctx, func() { w.f.Close() })
	return w
}

// control runs fn on the instance's descriptor, which stays open for the
// duration even if a cancellation closes the watch concurrently.
func (w *tailWatch) control(fn func(fd int) error) bool {
	rc, err := w.f.SyscallConn()
	if err != nil {
		return false
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) { ferr = fn(int(fd)) }); err != nil {
		return false
	}
	return ferr == nil
}

// rewatch moves the file watch to whatever Path names now, after the
// follower reopened it at a rotation. It reports false when the watch
// can no longer follow the log.
func (w *tailWatch) rewatch() bool {
	return w.control(func(fd int) error {
		wd, err := syscall.InotifyAddWatch(fd, w.path, tailFileMask)
		if err != nil {
			return err
		}
		if wd != w.fileWd {
			// The old inode may already be gone (its watch removed
			// itself); nothing is left to release then.
			_, _ = syscall.InotifyRmWatch(fd, uint32(w.fileWd))
			w.fileWd = wd
		}
		return nil
	})
}

// wait blocks until an event about the log arrives, poll passes, or the
// watch is closed. ok is false when the watch failed; the follower then
// drops it and sleeps instead.
func (w *tailWatch) wait(poll time.Duration) (wake, bool) {
	if err := w.f.SetReadDeadline(time.Now().Add(poll)); err != nil {
		return wakeStopped, errors.Is(err, os.ErrClosed)
	}
	for {
		n, err := w.f.Read(w.buf)
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			return wakeCheck, true
		case errors.Is(err, os.ErrClosed):
			return wakeStopped, true
		case err != nil:
			return 0, false
		}
		if k, relevant := w.parse(w.buf[:n]); relevant {
			return k, true
		}
	}
}

// parse folds a buffer of inotify events (struct inotify_event: wd,
// mask, cookie, len, then len bytes of NUL-padded name) into the wake
// they call for; relevant is false when none concerns the log, such as
// another file created in its directory.
func (w *tailWatch) parse(buf []byte) (wake, bool) {
	relevant := false
	for len(buf) >= syscall.SizeofInotifyEvent {
		wd := int(int32(binary.NativeEndian.Uint32(buf[0:])))
		mask := binary.NativeEndian.Uint32(buf[4:])
		end := syscall.SizeofInotifyEvent + int(binary.NativeEndian.Uint32(buf[12:]))
		if end > len(buf) {
			break
		}
		name := buf[syscall.SizeofInotifyEvent:end]
		for len(name) > 0 && name[len(name)-1] == 0 {
			name = name[:len(name)-1]
		}
		buf = buf[end:]
		switch {
		case mask&syscall.IN_Q_OVERFLOW != 0:
			// Events were lost: anything may have happened.
			return wakeCheck, true
		case wd == w.dirWd:
			if string(name) == w.base {
				return wakeCheck, true
			}
		case wd == w.fileWd:
			if mask&syscall.IN_MODIFY == 0 {
				return wakeCheck, true
			}
			relevant = true
		}
	}
	return wakeWrite, relevant
}

// close releases the inotify instance and its watches.
func (w *tailWatch) close() {
	w.release()
	w.f.Close()
}
