// Package atomicio provides the crash-safe file layer of the pipeline:
// atomic whole-file writes (temp file + fsync + rename + directory sync),
// bounded retry with backoff for transient I/O errors, and the checksummed
// dataset manifest (MANIFEST.json) the checkpoint/resume machinery keys
// off (DESIGN.md §10).
//
// Every operation goes through the FS interface so the fault injector in
// internal/iofault can interpose ENOSPC, short writes, transient errors
// and kill-points underneath the exact code paths production runs.
//
// The invariant the package maintains: a file at its final path is always
// complete. Torn state is confined to temp files (".tmp-" prefixed, in the
// same directory), which writers remove on failure and sweeps may remove
// at any time.
package atomicio

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// File is the writable-file surface the atomic writer needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface the crash-safe layer is written against.
// OS is the real implementation; iofault.New wraps any FS with seeded
// fault injection.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	// CreateTemp creates an exclusive temp file in dir from the pattern
	// (os.CreateTemp semantics) and returns the handle plus its path.
	CreateTemp(dir, pattern string) (File, string, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Open(name string) (io.ReadCloser, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory so a preceding rename is durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	// Some filesystems refuse directory fsync; durability degrades but
	// atomicity (rename) is unaffected, so don't fail the write over it.
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		err = nil
	}
	return err
}

// tempPrefix marks the in-flight temp files the atomic writer uses; they
// live in the destination directory so rename never crosses filesystems.
const tempPrefix = ".tmp-"

// IsTemp reports whether a file name (base name or path) is an atomicio
// temp file — torn leftovers of a crashed writer, safe to delete.
func IsTemp(name string) bool {
	return strings.HasPrefix(filepath.Base(name), tempPrefix)
}

// ErrTransient marks an injected or classified transient I/O failure:
// retrying the operation may succeed. RetryPolicy.Do retries only errors
// for which IsTransient holds.
var ErrTransient = errors.New("transient I/O error")

// IsTransient reports whether err is worth retrying: explicitly marked
// transient (ErrTransient in the chain) or a syscall-level transient
// condition.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EINTR)
}

// WriteInfo describes a committed atomic write.
type WriteInfo struct {
	// SHA256 is the lowercase hex digest of the file contents.
	SHA256 string
	// Size is the file length in bytes.
	Size int64
}

// Writer streams one atomic file write: data goes to a temp file in the
// destination directory while a running SHA-256 is kept; Close fsyncs,
// renames into place and syncs the directory. Until Close returns nil the
// final path is untouched; Abort (or a failed Close) removes the temp.
type Writer struct {
	fsys  FS
	f     File
	tmp   string
	final string
	hash  hash.Hash
	size  int64
	err   error
	done  bool
}

// NewWriter opens an atomic writer for path.
func NewWriter(fsys FS, path string) (*Writer, error) {
	f, tmp, err := fsys.CreateTemp(filepath.Dir(path), tempPrefix+"*")
	if err != nil {
		return nil, fmt.Errorf("atomicio: create temp for %s: %w", path, err)
	}
	return &Writer{fsys: fsys, f: f, tmp: tmp, final: path, hash: sha256.New()}, nil
}

// Write appends to the temp file. A short or failed write poisons the
// writer: Close will discard the temp and report the first error.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.f.Write(p)
	if n > 0 {
		w.hash.Write(p[:n])
		w.size += int64(n)
	}
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = fmt.Errorf("atomicio: write %s: %w", w.final, err)
		return n, w.err
	}
	return n, nil
}

// Close commits the write: fsync, close, rename over the final path, sync
// the directory. On any failure (including an earlier Write error) the
// temp file is removed and the final path is left untouched.
func (w *Writer) Close() error {
	if w.done {
		return w.err
	}
	w.done = true
	if w.err != nil {
		w.discard()
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("atomicio: sync %s: %w", w.final, err)
		w.discard()
		return w.err
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("atomicio: close %s: %w", w.final, err)
		w.f = nil
		w.discard()
		return w.err
	}
	w.f = nil
	if err := w.fsys.Rename(w.tmp, w.final); err != nil {
		w.err = fmt.Errorf("atomicio: rename %s: %w", w.final, err)
		w.discard()
		return w.err
	}
	if err := w.fsys.SyncDir(filepath.Dir(w.final)); err != nil {
		// The rename happened; the file is complete even if its
		// durability is not yet guaranteed.
		w.err = fmt.Errorf("atomicio: sync dir of %s: %w", w.final, err)
		return w.err
	}
	return nil
}

// Abort discards the write, removing the temp file. Safe after Close (a
// committed write is not undone).
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	if w.err == nil {
		w.err = errors.New("atomicio: write aborted")
	}
	w.discard()
}

// discard best-effort closes and removes the temp file. On an injected
// crash the removes fail too; resume sweeps stale temps instead.
func (w *Writer) discard() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.fsys.Remove(w.tmp)
}

// Info returns the digest and size of the committed file; valid once
// Close has returned nil.
func (w *Writer) Info() WriteInfo {
	return WriteInfo{SHA256: hex.EncodeToString(w.hash.Sum(nil)), Size: w.size}
}

// WriteFile atomically writes path with the content produced by write.
// write must be re-runnable: it may be invoked again if the caller wraps
// WriteFile in a retry. ctx aborts between steps; mid-stream cancellation
// is the caller's job (wrap the io.Writer).
func WriteFile(ctx context.Context, fsys FS, path string, write func(io.Writer) error) (WriteInfo, error) {
	if err := ctx.Err(); err != nil {
		return WriteInfo{}, err
	}
	w, err := NewWriter(fsys, path)
	if err != nil {
		return WriteInfo{}, err
	}
	if err := write(w); err != nil {
		w.Abort()
		return WriteInfo{}, err
	}
	if err := w.Close(); err != nil {
		return WriteInfo{}, err
	}
	return w.Info(), nil
}

// RetryPolicy bounds retry-with-backoff over transient I/O errors. The
// zero value is usable and becomes DefaultRetry.
type RetryPolicy struct {
	// Attempts is the total number of tries (first call included);
	// values <= 0 become DefaultRetry.Attempts.
	Attempts int
	// BaseDelay is the pause after the first failure; it doubles per
	// retry up to MaxDelay. Zero values take DefaultRetry's.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep replaces time.Sleep (tests inject a no-op).
	Sleep func(time.Duration)
}

// DefaultRetry is the policy production writers use.
var DefaultRetry = RetryPolicy{Attempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetry.Attempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetry.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetry.MaxDelay
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Do runs op, retrying transient failures (IsTransient) with exponential
// backoff until the attempt budget is spent. Non-transient errors and
// context cancellation return immediately.
func (p RetryPolicy) Do(ctx context.Context, op func() error) error {
	p = p.normalized()
	delay := p.BaseDelay
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
		if attempt < p.Attempts-1 {
			p.Sleep(delay)
			if delay *= 2; delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
	}
	return fmt.Errorf("atomicio: gave up after %d attempts: %w", p.Attempts, err)
}

// WriteFileRetry is WriteFile wrapped in the retry policy: each attempt
// re-runs write into a fresh temp file, so a transient mid-write failure
// costs a rewrite, never a torn final file.
func WriteFileRetry(ctx context.Context, fsys FS, path string, policy RetryPolicy, write func(io.Writer) error) (WriteInfo, error) {
	var info WriteInfo
	err := policy.Do(ctx, func() error {
		var werr error
		info, werr = WriteFile(ctx, fsys, path, write)
		return werr
	})
	return info, err
}

// SweepTemps removes stale atomicio temp files from dir (non-recursive).
// Resume paths call it so a crashed run's torn temps don't accumulate.
// A missing directory is not an error.
func SweepTemps(fsys FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && IsTemp(e.Name()) {
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
