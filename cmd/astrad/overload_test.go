package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/overload"
	"repro/internal/topology"
)

// startDaemonArgs launches run() in-process with extra flags appended
// and waits for its listen address.
func startDaemonArgs(t *testing.T, logPath, statePath string, extra ...string) (addr string, cancel context.CancelFunc, done chan int, errs *syncBuf) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	errs = &syncBuf{}
	done = make(chan int, 1)
	args := append([]string{
		"-log", logPath, "-state", statePath, "-listen", "127.0.0.1:0",
		"-dedup-window", fmt.Sprint(testDedup), "-reorder-window", testReorder.String(),
		"-checkpoint-every", "100ms",
		"-dimms", fmt.Sprint(48 * topology.SlotsPerNode),
	}, extra...)
	go func() { done <- run(ctx, args, io.Discard, errs) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(errs.String()); m != nil {
			return m[1], cancelCtx, done, errs
		}
		if time.Now().After(deadline) {
			cancelCtx()
			t.Fatalf("daemon never listened; stderr:\n%s", errs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// healthBody mirrors the /healthz response fields the overload tests
// care about.
type healthBody struct {
	Status   string `json:"status"`
	Records  int    `json:"records"`
	Offered  int    `json:"offered"`
	Shed     int    `json:"shed"`
	Overload *struct {
		Queue struct {
			Offered   uint64 `json:"offered"`
			Shed      uint64 `json:"shed"`
			Depth     int    `json:"depth"`
			Saturated bool   `json:"saturated"`
		} `json:"queue"`
	} `json:"overload"`
}

// TestDaemonSIGTERMUnderOverload: a tiny admission queue and a
// throttled drainer force sustained shedding, then shutdown arrives
// mid-overload. The daemon must exit 0, persist the shed count, and a
// restart must reproduce balanced books: offered == records + shed, no
// record lost beyond the counted sheds, none duplicated. Shedding
// changes coverage, never correctness: the faults served equal a batch
// clustering of exactly the records the daemon holds.
func TestDaemonSIGTERMUnderOverload(t *testing.T) {
	full, ces := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}

	addr, cancel, done, errs := startDaemonArgs(t, logPath, statePath,
		"-queue-depth", "64", "-queue-high", "32", "-queue-low", "8",
		"-drain-batch", "8", "-drain-interval", "5ms",
		"-shed-policy", "reject", "-checkpoint-every", "50ms")

	// Wait for overload to bite: the engine's degraded accounting shows
	// shed records and /healthz says so.
	var h healthBody
	deadline := time.Now().Add(20 * time.Second)
	for h.Shed == 0 {
		if code := httpGetJSON(t, "http://"+addr+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz = %d mid-overload", code)
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("overload never shed; healthz=%+v stderr:\n%s", h, errs.String())
		}
		time.Sleep(time.Millisecond)
	}
	if h.Status != "shedding" && h.Status != "degraded" {
		t.Fatalf("healthz status = %q while shedding", h.Status)
	}
	if h.Overload == nil {
		t.Fatal("healthz missing overload accounting")
	}
	if h.Offered != h.Records+h.Shed {
		t.Fatalf("healthz books do not balance: offered %d != records %d + shed %d",
			h.Offered, h.Records, h.Shed)
	}

	// SIGTERM equivalent mid-overload: drain, persist, exit 0.
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("overloaded shutdown exit = %d; stderr:\n%s", code, errs.String())
	}
	snaps, err := unmarshal(mustReadFile(t, statePath))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("state after overloaded shutdown: %d sites, %v", len(snaps), err)
	}
	shed, recs := snaps[0].shed, snaps[0].log.Records()
	if shed == 0 {
		t.Fatal("shed count not persisted")
	}

	// Restart with a deep queue and no throttle: the rest of the log
	// flows in, the shed stays charged, and the books still balance.
	addr, cancel, done, errs = startDaemonArgs(t, logPath, statePath)
	exited := false
	defer func() {
		if !exited {
			cancel()
			<-done
		}
	}()
	want := len(ces) - int(shed)
	if want < len(recs) {
		t.Fatalf("state carries %d records but only %d remain reachable", len(recs), want)
	}
	sum := waitForRecords(t, addr, want)
	if sum.Records != want {
		t.Fatalf("records = %d, want %d (= %d scanned - %d shed)", sum.Records, want, len(ces), shed)
	}
	if sum.Shed < int(shed) {
		t.Fatalf("restored shed = %d, want >= %d", sum.Shed, shed)
	}
	if sum.Offered != sum.Records+sum.Shed {
		t.Fatalf("books do not balance after restart: %+v", sum)
	}
	if !sum.Degraded {
		t.Fatal("engine not degraded despite shed records")
	}
	var fit struct {
		Windowed struct {
			Degraded bool `json:"degraded"`
		} `json:"windowed"`
	}
	httpGetJSON(t, "http://"+addr+"/v1/fit", &fit)
	if !fit.Windowed.Degraded {
		t.Fatal("windowed FIT hides the shed records")
	}

	// The final checkpoint holds exactly the records the engine ingested.
	cancel()
	exited = true
	if code := <-done; code != 0 {
		t.Fatalf("restarted shutdown exit = %d; stderr:\n%s", code, errs.String())
	}
	snaps, err = unmarshal(mustReadFile(t, statePath))
	if err != nil || len(snaps) != 1 || snaps[0].log.Len() != sum.Records {
		t.Fatalf("final state: %d sites, err %v; want the %d served records", len(snaps), err, sum.Records)
	}
	held := snaps[0].log.Records()
	wantFaults := mustCluster(t, held)
	wantBreak := core.BreakdownByMode(held, wantFaults)
	if sum.Faults != len(wantFaults) || sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("faults after shedding diverge from batch over the %d held records: %+v vs %+v",
			len(held), sum, wantBreak)
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDaemonKillUnderBacklogDifferential: SIGKILL the real binary while
// a throttled drainer holds a deep backlog, so the surviving state file
// is whatever the async checkpoint writer last managed to land — taken
// by Freeze mid-backlog. Restarting over it must still converge to the
// exact batch answer: the frozen snapshot (engine records + queued
// records) was prefix-consistent with the scanner checkpoint.
func TestDaemonKillUnderBacklogDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the astrad binary")
	}
	full, ces := testLog(t)
	wantFaults := mustCluster(t, ces)

	dir := t.TempDir()
	bin := filepath.Join(dir, "astrad")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin,
		"-log", logPath, "-state", statePath, "-listen", "127.0.0.1:0",
		"-dedup-window", fmt.Sprint(testDedup), "-reorder-window", testReorder.String(),
		"-checkpoint-every", "20ms",
		"-drain-batch", "16", "-drain-interval", "2ms")
	errs := &syncBuf{}
	cmd.Stderr = errs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for at least one async checkpoint while the backlog drains.
	deadline := time.Now().Add(20 * time.Second)
	for !strings.Contains(errs.String(), "msg=checkpoint") {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint before kill; stderr:\n%s", errs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no state file survived the kill: %v", err)
	}

	// Restart in-process over the survivor: exact convergence, nothing
	// shed (the queue was deep), nothing lost or duplicated.
	addr, cancel, done, _ := startDaemonArgs(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	sum := waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) {
		t.Fatalf("records = %d, want %d", sum.Records, len(ces))
	}
	if sum.Shed != 0 {
		t.Fatalf("deep queue shed %d records", sum.Shed)
	}
	if sum.Faults != len(wantFaults) {
		t.Fatalf("faults = %d, want batch %d", sum.Faults, len(wantFaults))
	}
	var h healthBody
	httpGetJSON(t, "http://"+addr+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz after convergence = %q, want ok", h.Status)
	}
}

// TestCheckpointBreakerStallingDisk drives astrad's checkpoint writer
// over a disk whose every write stalls past -checkpoint-timeout. The scan
// loop hands checkpoints over with offerCheckpoint, which must never
// wait for the disk: every call returns at once, and the snapshots the
// busy writer cannot take are skipped. The slow writes open the breaker,
// the writer returns once its channel closes, and the ladder still loads
// a generation, because a stalled write still lands whole.
func TestCheckpointBreakerStallingDisk(t *testing.T) {
	snaps, _ := stateFixture(t)
	sec, err := marshalSection(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	const stall = 30 * time.Millisecond
	statePath := filepath.Join(t.TempDir(), "astrad.state")
	d := &daemon{
		cfg:     daemonConfig{statePath: statePath, stateKeep: 2, cpTimeout: 5 * time.Millisecond},
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		breaker: overload.NewBreaker(overload.BreakerConfig{Failures: 2}),
		cpCh:    make(chan [][]byte, 1),
		fs:      iofault.New(atomicio.OS, iofault.Config{Seed: 1, StallWrite: 1, Stall: stall}),
	}
	s := &siteDaemon{id: "default"}
	s.section.Store(&sec)
	d.sites = []*siteDaemon{s}
	writerDone := make(chan struct{})
	go func() { defer close(writerDone); d.checkpointWriter() }()

	// A hand-over that waited for the writer would wait out a state
	// write of four stalled writes, so no call may take as long as one.
	var slowest time.Duration
	for i := 0; i < 40; i++ {
		start := time.Now()
		d.offerCheckpoint()
		slowest = max(slowest, time.Since(start))
		time.Sleep(5 * time.Millisecond)
	}
	close(d.cpCh)
	select {
	case <-writerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint writer still running after its channel closed")
	}
	st := d.breaker.Stats()
	t.Logf("slowest offer %v; breaker opens %d; written %d, skipped %d",
		slowest, st.Opens, d.checkpoints.Load(), d.cpSkipped.Load())
	if slowest >= stall {
		t.Fatalf("offerCheckpoint blocked for %v on a stalled disk", slowest)
	}
	if st.Opens < 1 {
		t.Fatalf("writes stalled past the timeout never opened the breaker: %+v", st)
	}
	got, gen, _, err := loadStateLadder(atomicio.OS, statePath, 2)
	if err != nil || gen < 0 || len(got) != 1 || got[0].id != "default" || !bytes.Equal(got[0].section, sec) {
		t.Fatalf("ladder after stalled writes: gen %d, %d sites, err %v", gen, len(got), err)
	}
}

// TestDaemonReadHeaderTimeout: a client that sends part of a request
// header and stalls must be cut off by -read-header-timeout, without a
// response byte, instead of holding its connection open.
func TestDaemonReadHeaderTimeout(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "syslog.log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs := startDaemonArgs(t, logPath, "", "-read-header-timeout", "200ms")
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("exit = %d; stderr:\n%s", code, errs.String())
		}
	}()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/faults HTTP/1.1\r\nHost: astrad\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("stalled client after %v: read %d bytes, err %v; want EOF", elapsed, n, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stalled client cut after %v, want about the 200ms header timeout", elapsed)
	}
}

// TestAdmissionFlagValidation pins that admission-queue settings no queue
// can hold are usage errors — exit 2 with the reason — and not a panic
// when the site pipeline is built.
func TestAdmissionFlagValidation(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "astra-syslog.log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-queue-depth", "0"}, "capacity must be positive"},
		{[]string{"-queue-depth", "-8"}, "capacity must be positive"},
		{[]string{"-queue-depth", "100", "-queue-low", "100"}, "low watermark 100 must be below high watermark 100"},
		{[]string{"-queue-depth", "100", "-queue-high", "40", "-queue-low", "60"}, "low watermark 60 must be below high watermark 40"},
		// 0 used to mean "capture at every record", a quadratic catch-up.
		{[]string{"-checkpoint-every", "0"}, "-checkpoint-every must be positive"},
		{[]string{"-checkpoint-every", "-1s"}, "-checkpoint-every must be positive"},
	} {
		var errs syncBuf
		args := append([]string{"-log", logPath, "-listen", "127.0.0.1:0"}, tc.args...)
		if code := run(ctx, args, io.Discard, &errs); code != 2 {
			t.Errorf("args %v: exit %d, want 2; stderr:\n%s", tc.args, code, errs.String())
		}
		if !strings.Contains(errs.String(), tc.msg) {
			t.Errorf("args %v: stderr lacks %q:\n%s", tc.args, tc.msg, errs.String())
		}
	}
}
