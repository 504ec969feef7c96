package syslog

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// rotCE formats the i-th distinct, valid CE line of a rotation fixture
// (strictly increasing timestamps, distinct addresses — no dedup, no
// reordering, so a zero ScanConfig emits them immediately and in order).
func rotCE(i int) string {
	r := sampleCE()
	r.Time = r.Time.Add(time.Duration(i) * time.Second)
	r.Addr = topology.PhysAddr(0x1000 + uint64(i)*0x40)
	return FormatCE(r) + "\n"
}

func rotLines(from, to int) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		b.WriteString(rotCE(i))
	}
	return b.String()
}

// tailCeilings are the idle ceilings the rotation tests run under: a
// 1 ms ceiling, where every idle wait ends in a rotation check, and — on
// platforms where the follower watches its log — an hour, so the watch
// alone must notice each rotation.
func tailCeilings() []time.Duration {
	if runtime.GOOS == "linux" {
		return []time.Duration{time.Millisecond, time.Hour}
	}
	return []time.Duration{time.Millisecond}
}

// rotTail starts a rotation-aware follower+scanner over path and returns
// the follower, a record channel, and a stop function that cancels the
// tail and returns the scanner's terminal error after the goroutine has
// exited (making Follower.Stats safe to read).
func rotTail(t *testing.T, path string, poll time.Duration) (*Follower, <-chan Parsed, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	f, err := os.Open(path)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	fo := NewFollower(ctx, f, TailConfig{Poll: poll, Path: path})
	sc := NewScannerConfig(fo, ScanConfig{})
	recCh := make(chan Parsed, 256)
	done := make(chan error, 1)
	go func() {
		for sc.Scan() {
			recCh <- sc.Record()
		}
		done <- sc.Err()
	}()
	stop := func() error {
		cancel()
		err := <-done
		f.Close()
		return err
	}
	return fo, recCh, stop
}

func recvRecords(t *testing.T, ch <-chan Parsed, n int, what string) []Parsed {
	t.Helper()
	var got []Parsed
	timeout := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case p := <-ch:
			got = append(got, p)
		case <-timeout:
			t.Fatalf("%s: timed out with %d of %d records", what, len(got), n)
		}
	}
	return got
}

// TestFollowerRotationReopen proves rename-and-recreate rotation: the
// follower notices the inode change at an idle poll, reopens the path
// and keeps delivering records from the successor file with no loss and
// no duplication.
func TestFollowerRotationReopen(t *testing.T) {
	for _, poll := range tailCeilings() {
		t.Run(poll.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "syslog")
			if err := os.WriteFile(path, []byte(rotLines(0, 5)), 0o644); err != nil {
				t.Fatal(err)
			}
			fo, recCh, stop := rotTail(t, path, poll)
			got := recvRecords(t, recCh, 5, "pre-rotation")

			// Rotate: rename the live log away, create a fresh one.
			if err := os.Rename(path, path+".1"); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(rotLines(5, 10)), 0o644); err != nil {
				t.Fatal(err)
			}
			got = append(got, recvRecords(t, recCh, 5, "post-rotation")...)

			if err := stop(); !errors.Is(err, ErrTailStopped) {
				t.Fatalf("scanner error = %v, want ErrTailStopped", err)
			}
			want := collect(t, NewScannerConfig(strings.NewReader(rotLines(0, 10)), ScanConfig{}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rotated tail diverges: got %d records, want %d", len(got), len(want))
			}
			st := fo.Stats()
			if st.Rotations != 1 || st.Truncations != 0 || st.DroppedPartials != 0 {
				t.Fatalf("stats = %+v, want exactly one rotation", st)
			}
		})
	}
}

// TestFollowerRotationDropsPartial pins the torn-line rule: a partial
// line stranded at the end of the rotated-away file is dropped and
// counted, never glued to the first bytes of the successor.
func TestFollowerRotationDropsPartial(t *testing.T) {
	for _, poll := range tailCeilings() {
		t.Run(poll.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "syslog")
			torn := rotCE(2)
			torn = torn[:len(torn)/2] // unterminated tail
			if err := os.WriteFile(path, []byte(rotLines(0, 2)+torn), 0o644); err != nil {
				t.Fatal(err)
			}
			fo, recCh, stop := rotTail(t, path, poll)
			got := recvRecords(t, recCh, 2, "pre-rotation")

			if err := os.Rename(path, path+".1"); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(rotLines(3, 5)), 0o644); err != nil {
				t.Fatal(err)
			}
			got = append(got, recvRecords(t, recCh, 2, "post-rotation")...)
			if err := stop(); !errors.Is(err, ErrTailStopped) {
				t.Fatalf("scanner error = %v, want ErrTailStopped", err)
			}

			want := collect(t, NewScannerConfig(strings.NewReader(rotLines(0, 2)+rotLines(3, 5)), ScanConfig{}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("records diverge after torn rotation: got %d, want %d", len(got), len(want))
			}
			st := fo.Stats()
			if st.Rotations != 1 || st.DroppedPartials != 1 || st.DroppedBytes != int64(len(torn)) {
				t.Fatalf("stats = %+v, want 1 rotation, 1 dropped partial of %d bytes", st, len(torn))
			}
		})
	}
}

// TestFollowerTruncateInPlace proves copytruncate tolerance: the same
// inode shrinking below the read position rewinds the follower to the
// top of the file.
func TestFollowerTruncateInPlace(t *testing.T) {
	for _, poll := range tailCeilings() {
		t.Run(poll.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "syslog")
			if err := os.WriteFile(path, []byte(rotLines(0, 3)), 0o644); err != nil {
				t.Fatal(err)
			}
			fo, recCh, stop := rotTail(t, path, poll)
			got := recvRecords(t, recCh, 3, "pre-truncate")

			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			// Give the follower a chance to observe the shrink before refilling,
			// as logrotate's copytruncate does (copy, truncate, writer continues).
			time.Sleep(20 * time.Millisecond)
			appendFile(t, path, rotLines(3, 6))
			got = append(got, recvRecords(t, recCh, 3, "post-truncate")...)
			if err := stop(); !errors.Is(err, ErrTailStopped) {
				t.Fatalf("scanner error = %v, want ErrTailStopped", err)
			}

			want := collect(t, NewScannerConfig(strings.NewReader(rotLines(0, 6)), ScanConfig{}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("records diverge after truncation: got %d, want %d", len(got), len(want))
			}
			if st := fo.Stats(); st.Truncations != 1 || st.Rotations != 0 {
				t.Fatalf("stats = %+v, want exactly one truncation", st)
			}
		})
	}
}

// TestFollowerFileOffsetCheckpointContinuity proves checkpoint
// continuity across a rotation: the scanner's stream offset keeps
// growing monotonically, FileOffset translates it into current-file
// coordinates, and a fresh scanner restored at the translated position
// in the successor file completes the stream exactly.
func TestFollowerFileOffsetCheckpointContinuity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syslog")
	part1, part2 := rotLines(0, 4), rotLines(4, 8)
	if err := os.WriteFile(path, []byte(part1), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fo := NewFollower(ctx, f, TailConfig{Poll: time.Millisecond, Path: path})
	sc := NewScannerConfig(fo, ScanConfig{})

	var got []Parsed
	for i := 0; i < 4; i++ {
		if !sc.Scan() {
			t.Fatalf("pre-rotation record %d: %v", i, sc.Err())
		}
		got = append(got, sc.Record())
	}
	// Pre-rotation the stream/file mapping is the identity.
	if off, ok := fo.FileOffset(sc.Offset()); !ok || off != sc.Offset() {
		t.Fatalf("FileOffset(%d) = %d,%v before rotation, want identity", sc.Offset(), off, ok)
	}

	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(part2), 0o644); err != nil {
		t.Fatal(err)
	}
	// Consume two of the four post-rotation records, then checkpoint.
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("post-rotation record %d: %v", i, sc.Err())
		}
		got = append(got, sc.Record())
	}
	cancel()
	for sc.Scan() {
		got = append(got, sc.Record())
	}
	if !errors.Is(sc.Err(), ErrTailStopped) {
		t.Fatalf("scanner error = %v, want ErrTailStopped", sc.Err())
	}
	cp := sc.Checkpoint()

	// The stream offset spans both files; the translated offset lands
	// inside the successor.
	if cp.Offset <= int64(len(part1)) {
		t.Fatalf("checkpoint offset %d not past file 1 (%d bytes)", cp.Offset, len(part1))
	}
	fileOff, ok := fo.FileOffset(cp.Offset)
	if !ok {
		t.Fatalf("FileOffset(%d) untranslatable", cp.Offset)
	}
	if want := cp.Offset - int64(len(part1)); fileOff != want {
		t.Fatalf("FileOffset(%d) = %d, want %d", cp.Offset, fileOff, want)
	}
	// An offset from before the rotation no longer names a file position.
	if _, ok := fo.FileOffset(int64(len(part1)) - 1); ok {
		t.Fatal("FileOffset accepted an offset from the rotated-away segment")
	}

	// Resume: a fresh scanner over the successor file at the translated
	// offset completes the stream.
	cp.Offset = fileOff
	nf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	if _, err := nf.Seek(fileOff, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	sc2 := NewScannerConfig(nf, ScanConfig{})
	if err := sc2.Restore(cp); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got = append(got, collect(t, sc2)...)

	want := collect(t, NewScannerConfig(strings.NewReader(part1+part2), ScanConfig{}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed-across-rotation stream diverges: got %d records, want %d", len(got), len(want))
	}
}
