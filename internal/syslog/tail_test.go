package syslog

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tailFixture creates an empty temp log file and returns its path plus the
// full resume log for the test to append.
func tailFixture(t *testing.T) (string, string) {
	t.Helper()
	in := resumeLog(t)
	path := filepath.Join(t.TempDir(), "syslog")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, in
}

func appendFile(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// liveEmittable returns how many of the batch scan's records a live tail
// can emit without ever seeing EOF: exactly those the reorder window has
// released by the time the newest record has arrived. The rest stay
// pending until more input (or a real end of stream) arrives. want is in
// emit (time) order, so the emittable records are its prefix.
func liveEmittable(want []Parsed, window time.Duration) int {
	var maxT time.Time
	for _, p := range want {
		if p.Time().After(maxT) {
			maxT = p.Time()
		}
	}
	n := 0
	for _, p := range want {
		if maxT.Sub(p.Time()) >= window {
			n++
		}
	}
	return n
}

// TestFollowerLiveTail proves the live path: records appended after the
// scanner started — including a line split across two writes — are
// delivered as the reorder window releases them, and cancelling ends the
// stream with ErrTailStopped (never EOF, which would flush the window)
// with the unreleased records held in the checkpoint, not lost.
func TestFollowerLiveTail(t *testing.T) {
	path, in := tailFixture(t)
	cfg := ScanConfig{DedupWindow: 3, ReorderWindow: time.Minute}

	want := collect(t, NewScannerConfig(strings.NewReader(in), cfg))
	live := liveEmittable(want, cfg.ReorderWindow)
	if live == 0 || live == len(want) {
		t.Fatalf("weak fixture: %d of %d records live-emittable", live, len(want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := NewScannerConfig(NewFollower(ctx, f, TailConfig{Poll: time.Millisecond}), cfg)

	recCh := make(chan Parsed, len(want))
	done := make(chan error, 1)
	go func() {
		for sc.Scan() {
			recCh <- sc.Record()
		}
		done <- sc.Err()
	}()

	// Feed the log in three slices, the middle one ending mid-line.
	cut1 := strings.Index(in, "\n") + 1
	cut2 := cut1 + 40
	appendFile(t, path, in[:cut1])
	time.Sleep(5 * time.Millisecond)
	appendFile(t, path, in[cut1:cut2])
	time.Sleep(5 * time.Millisecond)
	appendFile(t, path, in[cut2:])

	var got []Parsed
	timeout := time.After(10 * time.Second)
	for len(got) < live {
		select {
		case p := <-recCh:
			got = append(got, p)
		case <-timeout:
			t.Fatalf("timed out with %d of %d live records", len(got), live)
		}
	}
	// Everything the window can release has arrived; all input lines have
	// necessarily been consumed (the newest record is what released the
	// last live one). Stop the tail.
	cancel()
	scanErr := <-done
	close(recCh)
	for p := range recCh {
		got = append(got, p)
	}

	if !errors.Is(scanErr, ErrTailStopped) {
		t.Fatalf("scanner error = %v, want ErrTailStopped", scanErr)
	}
	if !reflect.DeepEqual(got, want[:live]) {
		t.Fatalf("live records diverge from batch prefix: got %d, want %d", len(got), live)
	}
	held := sc.Checkpoint()
	if total := len(got) + len(held.pending) + len(held.ready); total != len(want) {
		t.Fatalf("emitted %d + held %d records, want %d total", len(got), total-len(got), len(want))
	}
	if held.Offset != int64(len(in)) {
		t.Fatalf("checkpoint offset = %d, want %d (whole file consumed)", held.Offset, len(in))
	}
}

// TestFollowerStopResumeDifferential is the crash-safety contract astrad
// is built on: stop a live tail mid-stream (reorder heap non-empty),
// checkpoint through the serialized form, restore a fresh scanner over the
// rest of the file, and the combined record stream and final stats must
// equal the uninterrupted batch scan exactly.
func TestFollowerStopResumeDifferential(t *testing.T) {
	path, in := tailFixture(t)
	appendFile(t, path, in)
	cfg := ScanConfig{DedupWindow: 3, ReorderWindow: time.Minute}

	ref := NewScannerConfig(strings.NewReader(in), cfg)
	want := collect(t, ref)
	wantStats := ref.Stats()
	live := liveEmittable(want, cfg.ReorderWindow)

	for stop := 1; stop <= live; stop++ {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		first := NewScannerConfig(NewFollower(ctx, f, TailConfig{Poll: time.Millisecond}), cfg)
		var head []Parsed
		for i := 0; i < stop; i++ {
			if !first.Scan() {
				t.Fatalf("stop=%d: premature end: %v", stop, first.Err())
			}
			head = append(head, first.Record())
		}
		cancel()
		cp := first.Checkpoint()
		f.Close()

		// Serialize/deserialize as the daemon's state file would.
		data, err := cp.MarshalBinary()
		if err != nil {
			t.Fatalf("stop=%d: marshal: %v", stop, err)
		}
		var cp2 Checkpoint
		if err := cp2.UnmarshalBinary(data); err != nil {
			t.Fatalf("stop=%d: unmarshal: %v", stop, err)
		}

		second := NewScannerConfig(strings.NewReader(in[cp2.Offset:]), cfg)
		if err := second.Restore(cp2); err != nil {
			t.Fatalf("stop=%d: restore: %v", stop, err)
		}
		got := append(head, collect(t, second)...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stop=%d: resumed tail diverges from batch scan", stop)
		}
		if st := second.Stats(); st != wantStats {
			t.Fatalf("stop=%d: stats = %+v, want %+v", stop, st, wantStats)
		}
	}
}

// TestFollowerPartialLineHeldBack pins the line-boundary invariant: bytes
// after the last newline are never released, so the scanner's offset
// cannot land inside a line.
func TestFollowerPartialLineHeldBack(t *testing.T) {
	path, _ := tailFixture(t)
	line := FormatCE(sampleCE())
	appendFile(t, path, line+"\n"+line[:20]) // second line unterminated

	ctx, cancel := context.WithCancel(context.Background())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := NewScannerConfig(NewFollower(ctx, f, TailConfig{Poll: time.Millisecond}), ScanConfig{})
	if !sc.Scan() {
		t.Fatalf("no record: %v", sc.Err())
	}
	cancel()
	if sc.Scan() {
		t.Fatal("scanner got a record from an unterminated line")
	}
	if got, want := sc.Offset(), int64(len(line)+1); got != want {
		t.Fatalf("offset = %d, want %d (line boundary)", got, want)
	}
	if st := sc.Stats(); st.Lines != 1 {
		t.Fatalf("Lines = %d, want 1 (partial line must not be counted)", st.Lines)
	}
}

// TestFollowerLineTooLong bounds the held-back buffer.
func TestFollowerLineTooLong(t *testing.T) {
	path, _ := tailFixture(t)
	appendFile(t, path, strings.Repeat("x", maxTailLine+4096))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := NewScannerConfig(NewFollower(context.Background(), f, TailConfig{Poll: time.Millisecond}), ScanConfig{})
	if sc.Scan() {
		t.Fatal("scan succeeded over an unterminated megabyte line")
	}
	if sc.Err() == nil {
		t.Fatal("no error from an unterminated megabyte line")
	}
}

// TestFollowerWakesOnWrite: a line appended to an idle followed log is
// delivered at once, not at the next growth check — with an hour-long
// idle ceiling, only the watch can wake the tail.
func TestFollowerWakesOnWrite(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the follower watches its log only on Linux")
	}
	path := filepath.Join(t.TempDir(), "syslog")
	if err := os.WriteFile(path, []byte(rotCE(0)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recCh, stop := rotTail(t, path, time.Hour)
	defer stop()
	recvRecords(t, recCh, 1, "initial line")
	for i := 1; i <= 3; i++ {
		time.Sleep(10 * time.Millisecond) // let the log go idle
		appendFile(t, path, rotCE(i))
		start := time.Now()
		select {
		case <-recCh:
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("line %d not delivered within 100ms of its write", i)
		}
		t.Logf("line %d delivered %v after its write", i, time.Since(start))
	}
}

// TestFollowerStopReleasesWatch: cancelling a follower blocked on an
// idle log ends its Read with ErrTailStopped at once and releases the
// watch. Supervised restarts build one follower per incarnation, so a
// leaked descriptor per lifetime would grow without bound.
func TestFollowerStopReleasesWatch(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd")
	}
	path := filepath.Join(t.TempDir(), "syslog")
	if err := os.WriteFile(path, []byte(rotCE(0)), 0o644); err != nil {
		t.Fatal(err)
	}
	lifetime := func() {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sc := NewScannerConfig(NewFollower(ctx, f, TailConfig{Poll: time.Hour, Path: path}), ScanConfig{})
		done := make(chan error, 1)
		go func() {
			for sc.Scan() {
			}
			done <- sc.Err()
		}()
		time.Sleep(time.Millisecond) // usually reach the idle wait first
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, ErrTailStopped) {
				t.Fatalf("scanner error = %v, want ErrTailStopped", err)
			}
		case <-time.After(time.Second):
			t.Fatal("cancelled follower still blocked after 1s")
		}
	}
	// watches counts the process's open inotify instances.
	watches := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			if dst, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && dst == "anon_inode:inotify" {
				n++
			}
		}
		return n
	}
	before := watches()
	for i := 0; i < 50; i++ {
		lifetime()
	}
	if after := watches(); after != before {
		t.Fatalf("open inotify descriptors %d -> %d across 50 follower lifetimes", before, after)
	}
}
