package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// TestSealOpenState pins the checksum trailer: seal/open round-trips,
// an image without the trailer is rejected whatever its last bytes, the
// trailer is found by position even after a binary body, and any single
// bit flip — in the body or the trailer — is detected.
func TestSealOpenState(t *testing.T) {
	_, ces := testLog(t)
	data := marshalSnapshots(t, []siteSnapshot{{id: "default", shed: 3, log: logOf(ces[:8])}})
	sealed := sealState(data)
	if !bytes.HasPrefix(sealed, data) || len(sealed) != len(data)+sealLen {
		t.Fatal("sealing rewrote the body")
	}
	body, err := openState(sealed)
	if err != nil {
		t.Fatalf("open sealed: %v", err)
	}
	if !bytes.Equal(body, data) {
		t.Fatal("open did not strip the trailer exactly")
	}
	for name, unsealed := range map[string][]byte{
		"body":         data,
		"short":        []byte("checksum crc32 0\n"),
		"prefix-only":  append(bytes.Clone(data), checksumPrefix+"\n"...),
		"no-newline":   sealed[:len(sealed)-1],
		"other-prefix": append(bytes.Clone(data), "checksum crc64 01234567\n"...),
	} {
		if _, err := openState(unsealed); err == nil {
			t.Errorf("%s: image without a trailer accepted", name)
		}
	}
	bin := []byte{0, '\n', 0xff, 'c'}
	if body, err := openState(sealState(bin)); err != nil || !bytes.Equal(body, bin) {
		t.Fatalf("sealed binary body: %q, %v", body, err)
	}
	// Any bit flip in a sealed image must be caught: the body flips fail
	// the checksum, trailer flips garble or mismatch the trailer itself.
	for _, off := range []int{0, len(data) / 2, len(data) - 1, len(sealed) - 3} {
		corrupt := append([]byte(nil), sealed...)
		corrupt[off] ^= 0x10
		if _, err := unmarshal(corrupt); err == nil {
			t.Fatalf("bit flip at %d of %d undetected", off, len(sealed))
		}
	}
	// The full decode path accepts the sealed image.
	if snaps, err := unmarshal(sealed); err != nil || len(snaps) != 1 || snaps[0].log.Len() != 8 {
		t.Fatalf("unmarshal sealed = %+v, %v", snaps, err)
	}
}

// TestParseSectionErrorsNameSiteAndOffset pins the diagnosability
// contract: a damaged section names the site it belongs to and the byte
// offset where parsing stopped.
func TestParseSectionErrorsNameSiteAndOffset(t *testing.T) {
	_, ces := testLog(t)
	data := marshalSnapshots(t, []siteSnapshot{{id: "default", shed: 7, log: logOf(ces[:4])}})
	corrupt := bytes.Replace(data, []byte("\nshed 7\n"), []byte("\nsped 7\n"), 1)
	_, err := unmarshal(sealState(corrupt))
	if err == nil {
		t.Fatal("corrupted shed header accepted")
	}
	if !strings.Contains(err.Error(), "site default") || !strings.Contains(err.Error(), "at byte") {
		t.Fatalf("error does not name site and offset: %v", err)
	}

	multi := marshalSnapshots(t, []siteSnapshot{
		{id: "east", log: logOf(ces[:2])},
		{id: "west", log: logOf(ces[2:5])},
	})
	// Damage west's records header only.
	header, start, end := blobSpan(t, multi, 1)
	corrupt = bytes.Clone(multi)
	corrupt[header] = 'R'
	_, err = unmarshal(sealState(corrupt))
	if err == nil {
		t.Fatal("corrupted records header accepted")
	}
	if want := fmt.Sprintf("site west: bad records header at byte %d", header); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
	// Damage west's records blob: one flipped byte inside the colfmt data
	// fails its block checksum, reported at the blob's first byte.
	corrupt = bytes.Clone(multi)
	corrupt[(start+end)/2] ^= 0x40
	_, err = unmarshal(sealState(corrupt))
	if err == nil {
		t.Fatal("corrupted records blob accepted")
	}
	if !strings.Contains(err.Error(), "site west: records:") || !strings.Contains(err.Error(), fmt.Sprintf("at byte %d", start)) {
		t.Fatalf("blob error does not name site west and byte %d: %v", start, err)
	}
}

// TestParentFormatStateDiscarded is the upgrade contract: a state file
// the previous release wrote (astrad-state v4, records as syslog text)
// is a discarded generation that names its header, never a load error,
// and the daemon cold-starts from the log to the exact batch answer.
func TestParentFormatStateDiscarded(t *testing.T) {
	full, ces := testLog(t)
	cpb, err := syslog.Checkpoint{}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v4 := fmt.Sprintf("astrad-state v4\nsites 1\nsite default\ncheckpoint %d\n%sshed 0\nrecords 1\n%s\nalarms 0\n",
		len(cpb), cpb, syslog.FormatCE(ces[0]))
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, sealState([]byte(v4)), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, gen, discarded, err := loadStateLadder(atomicio.OS, statePath, 3)
	if err != nil || gen != -1 || snaps != nil || len(discarded) != 1 {
		t.Fatalf("ladder over a v4 file: gen=%d snaps=%d discarded=%d err=%v", gen, len(snaps), len(discarded), err)
	}
	if !strings.Contains(discarded[0].Err.Error(), `"astrad-state v4"`) {
		t.Fatalf("discard reason does not name the header: %v", discarded[0].Err)
	}

	addr, cancel, done, errs := startDaemon(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	if sum := waitForRecords(t, addr, len(ces)); sum.Records != len(ces) {
		t.Fatalf("records = %d, want %d: the v4 file's record was restored", sum.Records, len(ces))
	}
	if n := countMetric(t, addr, "astrad_state_generations_discarded_total"); n != 1 {
		t.Fatalf("astrad_state_generations_discarded_total = %g, want 1", n)
	}
	if !strings.Contains(errs.String(), "no state generation recoverable") {
		t.Fatalf("cold start not reported; stderr:\n%s", errs.String())
	}
}

// TestRestoredSectionIsExact: a restored site publishes the section
// bytes it was loaded from as its first checkpoint section instead of
// marshaling again. Those bytes must be exactly what marshaling the
// site's restored live state gives — engine records in arrival order,
// shed count, resume checkpoint and ledger — so the first checkpoint
// after a warm start is unchanged.
func TestRestoredSectionIsExact(t *testing.T) {
	_, ces := testLog(t)
	var ledger alarmLedger
	ledger.replace([]alarmEntry{
		{key: core.RecordBankKey(&ces[7]), at: 1700000000000000007},
		{key: core.RecordBankKey(&ces[1]), at: 1700000000000000001},
	})
	statePath := filepath.Join(t.TempDir(), "astrad.state")
	image := marshalSnapshots(t, []siteSnapshot{
		{id: "east", cp: midScanCheckpoint(t), shed: 5, log: logOf(ces[:len(ces)/2]), alarms: ledger.snapshot()},
		{id: "west", log: logOf(ces[len(ces)/2:])},
	})
	if err := os.WriteFile(statePath, sealState(image), 0o644); err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		cfg: daemonConfig{
			sites:     []siteSpec{{id: "east", path: "east.log"}, {id: "west", path: "west.log"}},
			statePath: statePath, stateKeep: 3,
			queueDepth: 64, window: stream.DefaultWindow, dimms: 48 * topology.SlotsPerNode,
		},
		log: slog.New(slog.NewTextHandler(io.Discard, nil)),
		fs:  atomicio.OS,
	}
	if err := d.restoreSites(); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.sites {
		eng := s.engine()
		live, err := marshalSection(siteSnapshot{cp: s.resumeCP, shed: eng.Shed(), log: eng.RecordLog(nil), alarms: s.alarms.snapshot()})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(*s.section.Load(), live) {
			t.Fatalf("site %s: restored section differs from a marshal of its restored state", s.id)
		}
	}
}

// startDaemonKeep is startDaemonArgs with a short checkpoint cadence and
// a generation ladder.
func startDaemonKeep(t *testing.T, logPath, statePath string, extra ...string) (string, context.CancelFunc, chan int, *syncBuf) {
	t.Helper()
	return startDaemonArgs(t, logPath, statePath,
		append([]string{"-state-keep", "3", "-checkpoint-every", "20ms"}, extra...)...)
}

// TestDaemonStateLadderRecovery is the generational-recovery acceptance
// test: a bit flip in the newest state generation must cost one
// checkpoint interval, not the daemon. Phase 1 lays down two distinct
// periodic generations, with lines appended between them; the newest is
// then bit-flipped, and the restarted daemon must fall back to the
// older generation, re-ingest the offset delta, and converge to the
// exact batch answer. A second restart with every generation corrupted
// must cold-start from the log — never exit — and still converge.
func TestDaemonStateLadderRecovery(t *testing.T) {
	full, ces := testLog(t)
	wantFaults := mustCluster(t, ces)
	wantBreak := core.BreakdownByMode(ces, wantFaults)

	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	quarter := bytes.LastIndexByte(full[:len(full)/4], '\n') + 1
	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:quarter], 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 1: ingest the first quarter and wait for a periodic
	// checkpoint covering it, then append the second quarter and wait for
	// one covering that. Shutdown has nothing left to write.
	addr, cancel, done, errs := startDaemonKeep(t, logPath, statePath)
	var h struct {
		Records int `json:"records"`
	}
	for _, end := range []int{quarter, cut} {
		if end == cut {
			appendLog(t, logPath, full[quarter:cut])
		}
		deadline := time.Now().Add(10 * time.Second)
		for h.Records == 0 || !strings.Contains(errs.String(), "msg=checkpoint") || stateOffset(t, statePath) != int64(end) {
			if code := httpGetJSON(t, "http://"+addr+"/healthz", &h); code != http.StatusOK {
				t.Fatalf("healthz = %d", code)
			}
			if time.Now().After(deadline) {
				t.Fatalf("no checkpoint at offset %d in phase 1; stderr:\n%s", end, errs.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 1 exit = %d; stderr:\n%s", code, errs.String())
	}
	if _, err := os.Stat(statePath + ".1"); err != nil {
		t.Fatalf("no generation 1 after two checkpoints: %v", err)
	}
	if bytes.Equal(mustReadFile(t, statePath), mustReadFile(t, statePath+".1")) {
		t.Fatal("generations 0 and 1 are copies of one state")
	}

	// Corrupt the newest generation and append the rest of the log.
	if _, _, err := iofault.FlipBit(statePath, 42); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: the daemon must discard generation 0, restore generation 1
	// and converge to the batch answer.
	addr, cancel, done, errs = startDaemonKeep(t, logPath, statePath)
	sum := waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) || sum.Faults != len(wantFaults) {
		t.Fatalf("phase 2: records=%d faults=%d, want %d/%d", sum.Records, sum.Faults, len(ces), len(wantFaults))
	}
	if sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("phase 2 breakdown diverges: %+v vs %+v", sum, wantBreak)
	}
	if !strings.Contains(errs.String(), "state generation discarded") ||
		!strings.Contains(errs.String(), "recovered from older state generation") {
		t.Fatalf("phase 2 did not report the ladder fallback; stderr:\n%s", errs.String())
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("astrad_state_generations_discarded_total 1")) {
		t.Fatalf("discard metric missing:\n%s", metrics)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 2 exit = %d; stderr:\n%s", code, errs.String())
	}

	// Phase 3: corrupt every generation. The daemon must cold-start from
	// the log — total state loss is an operational event, not an outage —
	// and still converge to the batch answer.
	gens, _ := filepath.Glob(statePath + "*")
	if len(gens) < 2 {
		t.Fatalf("expected a ladder, found %v", gens)
	}
	for i, g := range gens {
		if _, _, err := iofault.FlipBit(g, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	addr, cancel, done, errs = startDaemonKeep(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	sum = waitForRecords(t, addr, len(ces))
	if sum.Faults != len(wantFaults) || sum.FaultsByMode != wantBreak.FaultsByMode {
		t.Fatalf("cold start diverges: %+v", sum)
	}
	if !strings.Contains(errs.String(), "no state generation recoverable") {
		t.Fatalf("cold start not reported; stderr:\n%s", errs.String())
	}
}

// stateOffset is the resume offset of the one site in the state file at
// path, or -1 while there is none.
func stateOffset(t *testing.T, path string) int64 {
	t.Helper()
	snaps, _, discarded, err := loadStateLadder(atomicio.OS, path, 1)
	if err != nil || len(discarded) > 0 {
		t.Fatalf("state %s: %v, discarded %v", path, err, discarded)
	}
	if len(snaps) != 1 {
		return -1
	}
	return snaps[0].cp.Offset
}

// TestDaemonIdleShutdownKeepsLadder: a warm boot that reads no new line
// shuts down without writing. SIGTERM (which cancels run's context) must
// find every site's section unchanged since it was restored from
// generation 0, so the daemon exits 0 and leaves every generation byte
// for byte as it was: idle restarts must not fill the ladder with copies
// of one state. One appended CE line is a change, and shutdown writes it
// as a new generation.
func TestDaemonIdleShutdownKeepsLadder(t *testing.T) {
	full, ces := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	gens := []string{statePath, statePath + ".1", statePath + ".2"}
	ladder := func() [][]byte {
		out := make([][]byte, len(gens))
		for i, g := range gens {
			data, err := os.ReadFile(g)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			out[i] = data
		}
		return out
	}
	// boot runs astrad until it has scanned the whole log, shuts it down
	// and returns its stderr.
	boot := func(phase string) string {
		t.Helper()
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		addr, cancel, done, errs := startDaemonArgs(t, logPath, statePath, "-state-keep", "3")
		for deadline := time.Now().Add(30 * time.Second); countMetric(t, addr, "astrad_log_offset_bytes") < float64(fi.Size()); {
			if time.Now().After(deadline) {
				cancel()
				<-done
				t.Fatalf("%s: the log was never scanned to its end; stderr:\n%s", phase, errs.String())
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if code := <-done; code != 0 {
			t.Fatalf("%s: exit = %d; stderr:\n%s", phase, code, errs.String())
		}
		return errs.String()
	}

	// Two distinct generations: a cold boot over the first half, a warm
	// one over the whole log.
	boot("cold boot")
	appendLog(t, logPath, full[cut:])
	boot("warm boot over the second half")
	before := ladder()
	if before[1] == nil || bytes.Equal(before[0], before[1]) {
		t.Fatal("setup: want two distinct generations")
	}

	stderr := boot("idle warm boot")
	if !restoredRE.MatchString(stderr) || !strings.Contains(stderr, "final checkpoint skipped") {
		t.Errorf("idle warm boot: no restore or no skipped final checkpoint logged; stderr:\n%s", stderr)
	}
	for i, data := range ladder() {
		if !bytes.Equal(data, before[i]) {
			t.Errorf("idle warm boot rewrote %s (%d bytes, was %d)", filepath.Base(gens[i]), len(data), len(before[i]))
		}
	}

	// One more CE line, past the sentinel: the scanner holds it for the
	// reorder window, and its checkpoint moves.
	last := ces[len(ces)-1]
	last.Time = last.Time.Add(testReorder + 2*time.Minute)
	appendLog(t, logPath, []byte(syslog.FormatCE(last)+"\n"))
	boot("warm boot over one new line")
	after := ladder()
	if bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[0]) || !bytes.Equal(after[2], before[1]) {
		t.Errorf("one new line: want a new generation 0 with the ladder slid by one (generation 0 rewritten %v, slid %v/%v)",
			!bytes.Equal(after[0], before[0]), bytes.Equal(after[1], before[0]), bytes.Equal(after[2], before[1]))
	}
	if snaps, _, _, err := loadStateLadder(atomicio.OS, statePath, 1); err != nil || len(snaps) != 1 || snaps[0].cp.Offset != int64(len(full))+int64(len(syslog.FormatCE(last)))+1 {
		t.Errorf("new generation: err %v, %d sites, want one resuming past the new line", err, len(snaps))
	}
}

// TestDaemonCheckpointsAtIdle: a daemon that has caught up still
// checkpoints. A log scanned within one -checkpoint-every interval and
// then left idle gets exactly one periodic checkpoint, captured at the
// tail's wait once the interval has passed (so within the interval plus
// the -poll ceiling), holding every record; and no second one while the
// log does not change. With a slow drainer, the queue still holds most
// of the log when the checkpoint falls due; the idle capture waits for
// it to drain, so the checkpoint's first-alarm ledger scores every
// record it holds, as the shutdown capture's does.
func TestDaemonCheckpointsAtIdle(t *testing.T) {
	full, ces := testLog(t)
	const every, poll, grace = 400 * time.Millisecond, 100 * time.Millisecond, time.Second
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"caught-up", nil},
		// Eight batches, every/2 apart: the drain takes 4 intervals.
		{"slow-drain", []string{"-drain-batch", fmt.Sprint(len(ces)/8 + 1), "-drain-interval", (every / 2).String()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			logPath := filepath.Join(dir, "syslog.log")
			statePath := filepath.Join(dir, "astrad.state")
			if err := os.WriteFile(logPath, full, 0o644); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			addr, cancel, done, errs := startDaemonArgs(t, logPath, statePath, append([]string{
				"-checkpoint-every", every.String(), "-poll", poll.String(), "-risk-threshold", "0.1"}, tc.extra...)...)
			running := true
			defer func() {
				if running {
					cancel()
					<-done
				}
			}()
			checkpoints := func() int { return strings.Count(errs.String(), "msg=checkpoint ") }
			for deadline := start.Add(30 * time.Second); countMetric(t, addr, "astrad_log_offset_bytes") < float64(len(full)); {
				if time.Now().After(deadline) {
					t.Fatalf("the log was never scanned to its end; stderr:\n%s", errs.String())
				}
				time.Sleep(time.Millisecond)
			}
			if scanned := time.Since(start); scanned >= every {
				t.Skipf("the log took %v to scan, past the %v interval", scanned, every)
			}
			waitForRecords(t, addr, len(ces))
			drained := time.Now()
			for checkpoints() == 0 {
				if time.Since(drained) > every+poll+grace {
					t.Fatalf("no checkpoint %v after the engine held every record, interval %v, poll %v; stderr:\n%s",
						time.Since(drained), every, poll, errs.String())
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Logf("first checkpoint logged %v after start", time.Since(start))
			snaps, _, _, err := loadStateLadder(atomicio.OS, statePath, 1)
			if err != nil || len(snaps) != 1 || snaps[0].log.Len() != len(ces) {
				t.Fatalf("idle checkpoint: err %v, %d sites, want one holding %d records", err, len(snaps), len(ces))
			}
			time.Sleep(3 * every)
			if n := checkpoints(); n != 1 {
				t.Fatalf("%d checkpoints over an idle log, want 1; stderr:\n%s", n, errs.String())
			}
			cancel()
			running = false
			if code := <-done; code != 0 {
				t.Fatalf("exit = %d; stderr:\n%s", code, errs.String())
			}
			final, _, _, err := loadStateLadder(atomicio.OS, statePath, 1)
			if err != nil || len(final) != 1 {
				t.Fatalf("shutdown state: err %v, %d sites", err, len(final))
			}
			if len(final[0].alarms) == 0 || !reflect.DeepEqual(snaps[0].alarms, final[0].alarms) {
				t.Fatalf("idle checkpoint ledger has %d alarms, the shutdown's %d (or their stamps differ)",
					len(snaps[0].alarms), len(final[0].alarms))
			}
		})
	}
}

// TestCheckpointRetriedPastBusyWriter: a due checkpoint the writer has
// no room for is tried again at the next due wait, though the caught-up
// log has not moved; once the writer takes one, no more are captured
// while the log stays idle.
func TestCheckpointRetriedPastBusyWriter(t *testing.T) {
	full, ces := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	const every, poll = 100 * time.Millisecond, 20 * time.Millisecond
	d := &daemon{
		cfg: daemonConfig{
			logPath: logPath, statePath: filepath.Join(dir, "astrad.state"), stateKeep: 1,
			dedupWindow: testDedup, reorderWindow: testReorder, poll: poll, checkpointSec: every,
			queueDepth: 1 << 16, drainBatch: 1024, window: stream.DefaultWindow, dimms: 48 * topology.SlotsPerNode,
			riskThreshold: 0.1,
		},
		log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		fs:        atomicio.OS,
		predictor: predict.DefaultRuleLadder(),
		cpCh:      make(chan [][]byte, 1),
	}
	if err := d.restoreSites(); err != nil {
		t.Fatal(err)
	}
	s := d.sites[0]
	q, eng := s.queue(), s.engine()
	d.cpCh <- nil // the writer is busy
	drained := make(chan struct{})
	go func() {
		d.drain(q, eng)
		close(drained)
	}()
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() {
		_, _, err := d.ingest(ctx, s, q, f, syslog.Checkpoint{})
		stopped <- err
	}()
	defer func() {
		cancel()
		if err := <-stopped; err != nil {
			t.Error(err)
		}
		q.Close()
		<-drained
	}()

	deadline := time.Now().Add(30 * time.Second)
	for eng.Summary().Records < len(ces) {
		if time.Now().After(deadline) {
			t.Fatalf("the engine holds %d of %d records", eng.Summary().Records, len(ces))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Caught up: every due wait tries the capture the writer drops.
	for skipped := d.cpSkipped.Load(); d.cpSkipped.Load() < skipped+2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d checkpoints skipped, no retry over the idle log", d.cpSkipped.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-d.cpCh // the writer frees up
	select {
	case secs := <-d.cpCh:
		snap, err := parseSection(secs[0], s.id)
		if err != nil || snap.log.Len() != len(ces) {
			t.Fatalf("handed-over section: err %v, %d records, want %d", err, snap.log.Len(), len(ces))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no checkpoint handed over once the writer was free")
	}
	time.Sleep(3 * every)
	select {
	case <-d.cpCh:
		t.Fatal("checkpoint captured again over an idle log")
	default:
	}
}

// countMetric extracts one un-labelled metric value from /metrics.
func countMetric(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
				return v
			}
		}
	}
	return 0
}

// TestDaemonRotationLadderRecovery is the combined acceptance test: the
// live log is rotated away mid-tail, the daemon keeps ingesting the
// successor with checkpoint continuity, the newest state generation is
// then bit-flipped, and a restarted daemon must fall back one generation
// (whose offset is in successor-file coordinates) and converge to the
// exact batch answer over both files' records. The dataset is kept
// small (12 nodes) because every checkpoint capture snapshots the full
// record population: at testLog scale the 20ms cadence would spend more
// time capturing than ingesting under the race detector.
func TestDaemonRotationLadderRecovery(t *testing.T) {
	full, ces := buildSiteLog(t, 61, 12)
	wantFaults := mustCluster(t, ces)
	wantBreak := core.BreakdownByMode(ces, wantFaults)

	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	addr, cancel, done, errs := startDaemonKeep(t, logPath, statePath)
	var h struct {
		Records int `json:"records"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Records == 0 {
		httpGetJSON(t, "http://"+addr+"/healthz", &h)
		if time.Now().After(deadline) {
			t.Fatal("no records before rotation")
		}
		time.Sleep(time.Millisecond)
	}

	// Rotate: rename the live log away, then create the successor. The
	// follower must notice the inode change and keep going. The successor
	// content arrives as a trickle of appends so the scanner keeps
	// yielding across many checkpoint intervals — by shutdown, every
	// generation on the ladder carries successor-file offsets.
	if err := os.Rename(logPath, logPath+".old"); err != nil {
		t.Fatal(err)
	}
	rest := full[cut:]
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(rest); {
		end := off + len(rest)/8
		if end >= len(rest) {
			end = len(rest)
		} else {
			end = off + bytes.LastIndexByte(rest[off:end], '\n') + 1
		}
		f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(rest[off:end]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		off = end
		time.Sleep(60 * time.Millisecond)
	}
	sum := waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) {
		t.Fatalf("rotated tail lost records: %d of %d", sum.Records, len(ces))
	}
	if n := countMetric(t, addr, "astrad_log_rotations_total"); n != 1 {
		t.Fatalf("astrad_log_rotations_total = %g, want 1", n)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("rotation phase exit = %d; stderr:\n%s", code, errs.String())
	}

	// The final checkpoint's offset must be in successor coordinates: at
	// most the successor's size.
	snaps, _, _, err := loadStateLadder(atomicio.OS, statePath, 1)
	if err != nil {
		t.Fatalf("state after rotation: %v", err)
	}
	if n := int64(len(full) - cut); len(snaps) != 1 || snaps[0].cp.Offset > n {
		t.Fatalf("final offset %d exceeds successor size %d", snaps[0].cp.Offset, n)
	}

	// Bit-flip the newest generation; recovery must fall back and still
	// reproduce the batch answer exactly.
	if _, _, err := iofault.FlipBit(statePath, 7); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs = startDaemonKeep(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	sum = waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) || sum.Faults != len(wantFaults) {
		t.Fatalf("post-rotation recovery: records=%d faults=%d, want %d/%d",
			sum.Records, sum.Faults, len(ces), len(wantFaults))
	}
	if sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("post-rotation breakdown diverges: %+v vs %+v", sum, wantBreak)
	}
	if !strings.Contains(errs.String(), "state generation discarded") {
		t.Fatalf("fallback not reported; stderr:\n%s", errs.String())
	}
}

// poisonLog writes a log whose first line exceeds the follower's 1 MiB
// buffer cap — a deterministic, repeatable ingest fault.
func poisonLog(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 2<<20), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonSiteFaultIsolation is the fault-isolation acceptance test: a
// site whose log is unreadable exhausts its restart budget and is
// quarantined, its endpoints answer 503 with the supervision detail, and
// /healthz degrades — while the sibling site ingests to the exact batch
// answer and keeps serving 200s. SIGTERM while quarantined still writes
// a final checkpoint with both sites' sections, exits 0, and a restart
// over that state (log repaired) holds the differential.
func TestDaemonSiteFaultIsolation(t *testing.T) {
	logA, cesA := testLog(t)
	faultsA := mustCluster(t, cesA)

	dir := t.TempDir()
	pathA := filepath.Join(dir, "east.log")
	pathB := filepath.Join(dir, "west.log")
	statePath := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(pathA, logA, 0o644); err != nil {
		t.Fatal(err)
	}
	poisonLog(t, pathB)

	args := []string{
		"-site", "east=" + pathA, "-site", "west=" + pathB,
		"-state", statePath, "-listen", "127.0.0.1:0",
		"-dedup-window", fmt.Sprint(testDedup), "-reorder-window", testReorder.String(),
		"-checkpoint-every", "50ms", "-state-keep", "3",
		"-dimms", fmt.Sprint(48 * topology.SlotsPerNode),
		"-restart-backoff", "1ms", "-restart-backoff-max", "5ms", "-restart-budget", "2",
	}
	addr, cancel, done, errs := startDaemonCustom(t, args...)

	// West must quarantine: initial run + 2 restarts, all hitting the
	// oversized line, with ~1ms backoffs.
	type siteEntry struct {
		ID       string  `json:"id"`
		State    string  `json:"state"`
		Restarts uint64  `json:"restarts"`
		LastErr  string  `json:"lastError"`
		RetryIn  float64 `json:"retryInSeconds"`
	}
	var hz struct {
		Status string      `json:"status"`
		Sites  []siteEntry `json:"sites"`
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		httpGetJSON(t, "http://"+addr+"/healthz", &hz)
		west := siteEntry{}
		for _, s := range hz.Sites {
			if s.ID == "west" {
				west = s
			}
		}
		if west.State == "quarantined" {
			if hz.Status != "degraded" && hz.Status != "shedding" {
				t.Fatalf("healthz status = %q with a quarantined site", hz.Status)
			}
			if west.Restarts != 2 || !strings.Contains(west.LastErr, "unterminated line") {
				t.Fatalf("west health = %+v, want 2 restarts and the tail error", west)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("west never quarantined; healthz=%+v stderr:\n%s", hz, errs.String())
		}
		time.Sleep(time.Millisecond)
	}

	// East is untouched: it converges to its batch answer while west is
	// down, and its scoped endpoints keep serving.
	var east struct {
		Records int `json:"records"`
		Faults  int `json:"faults"`
	}
	deadline = time.Now().Add(300 * time.Second)
	for east.Records < len(cesA) {
		if code := httpGetJSON(t, "http://"+addr+"/v1/sites/east/breakdown", &east); code != http.StatusOK {
			t.Fatalf("east breakdown = %d during west quarantine", code)
		}
		if time.Now().After(deadline) {
			t.Fatalf("east stuck at %d of %d", east.Records, len(cesA))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if east.Faults != len(faultsA) {
		t.Fatalf("east faults = %d, want %d", east.Faults, len(faultsA))
	}

	// West's scoped endpoints answer 503 with the supervision detail.
	resp, err := http.Get("http://" + addr + "/v1/sites/west/faults")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("west faults = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("west 503 without Retry-After")
	}
	if !bytes.Contains(body, []byte("quarantined")) {
		t.Fatalf("west 503 body lacks state: %s", body)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`astrad_site_state{site="west"} 2`,
		`astrad_site_state{site="east"} 0`,
		`astrad_site_restarts_total{site="west"} 2`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// SIGTERM while west is quarantined: exit 0, final checkpoint with
	// both sections intact.
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("shutdown with quarantined site exit = %d; stderr:\n%s", code, errs.String())
	}
	snaps, _, _, err := loadStateLadder(atomicio.OS, statePath, 1)
	if err != nil {
		t.Fatalf("state after quarantined shutdown: %v", err)
	}
	bySite := map[string]siteSnapshot{}
	for _, sn := range snaps {
		bySite[sn.id] = sn
	}
	if bySite["east"].log.Len() == 0 {
		t.Fatal("east section lost its records")
	}
	if w, ok := bySite["west"]; !ok || w.log.Len() != 0 {
		t.Fatalf("west section = %+v, want present and empty", bySite["west"])
	}

	// Repair west's log and restart over the same state: the restart
	// differential holds for the healthy site.
	if err := os.WriteFile(pathB, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs = startDaemonCustom(t, args...)
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("restart exit = %d; stderr:\n%s", code, errs.String())
		}
	}()
	east.Records, east.Faults = 0, 0
	deadline = time.Now().Add(300 * time.Second)
	for east.Records < len(cesA) {
		httpGetJSON(t, "http://"+addr+"/v1/sites/east/breakdown", &east)
		if time.Now().After(deadline) {
			t.Fatalf("restarted east stuck at %d of %d", east.Records, len(cesA))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if east.Faults != len(faultsA) {
		t.Fatalf("restarted east faults = %d, want %d", east.Faults, len(faultsA))
	}
}

// TestDaemonSiteRecoversWhenLogAppears pins two contracts at once: a
// missing log at startup is a restartable fault, not a fatal one (the
// old daemon exited 1), and a later restart under the supervisor
// actually succeeds once the fault clears.
func TestDaemonSiteRecoversWhenLogAppears(t *testing.T) {
	full, _ := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "late.log")

	addr, cancel, done, errs := startDaemonArgs(t, logPath, "",
		"-restart-backoff", "1ms", "-restart-backoff-max", "10ms", "-restart-budget=-1")
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("exit = %d; stderr:\n%s", code, errs.String())
		}
	}()

	var hz struct {
		Status string `json:"status"`
		Sites  []struct {
			State string `json:"state"`
		} `json:"sites"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		httpGetJSON(t, "http://"+addr+"/healthz", &hz)
		if hz.Status == "degraded" && len(hz.Sites) == 1 && hz.Sites[0].State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("missing log never degraded healthz: %+v", hz)
		}
		time.Sleep(time.Millisecond)
	}

	// The log appears; the supervisor's next restart must pick it up.
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	var h struct {
		Records int `json:"records"`
	}
	deadline = time.Now().Add(300 * time.Second)
	for h.Records == 0 {
		httpGetJSON(t, "http://"+addr+"/healthz", &h)
		if time.Now().After(deadline) {
			t.Fatalf("site never recovered; stderr:\n%s", errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepTempsOnStartup: an orphaned atomic-write temp file beside the
// state path is removed during startup.
func TestSweepTempsOnStartup(t *testing.T) {
	full, _ := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, ".tmp-orphan123")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !atomicio.IsTemp(filepath.Base(orphan)) {
		t.Fatalf("%s not recognized as a temp file", orphan)
	}
	_, cancel, done, errs := startDaemon(t, logPath, filepath.Join(dir, "astrad.state"))
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		cancel()
		t.Fatalf("orphaned temp file survived startup: %v", err)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, errs.String())
	}
}

// wrappedCounts is a colfmt blob whose three header counts wrap to 1
// when summed.
var wrappedCounts = colfmt.Magic + "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" +
	"\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" + "\x01" + "\x00"

// FuzzLoadStateLadder: whatever bytes sit in the newest generation, the
// ladder loader must never error — it either accepts them (if they
// decode) or falls back to the valid older generation — and a generation
// it accepts must resume: every site's checkpoint restores into astrad's
// scanner, which then scans a stretch of fresh record lines.
func FuzzLoadStateLadder(f *testing.F) {
	_, ces := testLog(f)
	var tail []byte
	for _, ce := range ces[:80] {
		tail = append(syslog.AppendCE(tail, ce), '\n')
	}
	valid := marshalSnapshots(f, []siteSnapshot{{id: "default"}})
	sealed := sealState(valid)
	f.Add([]byte(""))
	f.Add(sealed)
	f.Add(valid)
	f.Add(sealState([]byte(stateMagic + "\n")))
	flipped := bytes.Clone(sealed)
	flipped[len(flipped)/2] ^= 4
	f.Add(flipped)
	rich := marshalSnapshots(f, []siteSnapshot{
		{id: "east", shed: 2, log: logOf(ces[:20]), alarms: []alarmEntry{{key: core.RecordBankKey(&ces[0]), at: 1}}},
		{id: "west", log: logOf(ces[20:30])},
	})
	f.Add(sealState(rich))
	// Header counts a sealed image can carry; once, each sized an
	// allocation before anything bounded it, and killed the loader.
	cpb, err := syslog.Checkpoint{}.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	for _, magic := range []string{"astrad-state v4", stateMagic} {
		f.Add(sealState([]byte(magic + "\nsites 99999999999\n")))
		f.Add(sealState(fmt.Appendf(nil, "%s\nsites 1\nsite default\ncheckpoint %d\n%sshed 0\nrecords 0\nalarms 99999999999\n",
			magic, len(cpb), cpb)))
	}
	f.Add(sealState(bytes.Replace(rich, []byte("\nalarms 1\n"), []byte("\nalarms 99999999999\n"), 1)))
	// A records blob whose colfmt header counts sum past 2^64 (2^63,
	// 2^63, 1) to one record: it once sized a slice that panicked the
	// decoder, which startup restore does not recover from.
	f.Add(sealState(fmt.Appendf(nil, "%s\nsites 1\nsite default\ncheckpoint %d\n%sshed 0\nrecords %d\n%s\nalarms 0\n",
		stateMagic, len(cpb), cpb, len(wrappedCounts), wrappedCounts)))
	// A checkpoint whose full 4-line dedup ring has its next-overwrite
	// position spliced to 99: it once loaded, and the record line that
	// reached that position panicked the scan.
	f.Add(sealState(ringPositionImage(f, ces, 99)))
	f.Fuzz(func(t *testing.T, gen0 []byte) {
		dir := t.TempDir()
		statePath := filepath.Join(dir, "astrad.state")
		if err := os.WriteFile(statePath, gen0, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statePath+".1", sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		snaps, gen, discarded, err := loadStateLadder(atomicio.OS, statePath, 3)
		if err != nil {
			t.Fatalf("ladder load errored on fuzzed generation: %v", err)
		}
		switch gen {
		case 0:
			// The fuzzer found bytes that decode; fine.
		case 1:
			if len(discarded) != 1 || snaps == nil {
				t.Fatalf("fallback bookkeeping wrong: gen=%d discarded=%d", gen, len(discarded))
			}
		default:
			t.Fatalf("gen = %d with a valid generation 1 present", gen)
		}
		for _, sn := range snaps {
			// astrad's default -dedup-window and -reorder-window.
			sc := syslog.NewScannerConfig(bytes.NewReader(tail), syslog.ScanConfig{DedupWindow: 64, ReorderWindow: 5 * time.Minute})
			if err := sc.Restore(sn.cp); err != nil {
				t.Fatalf("site %s: restore: %v", sn.id, err)
			}
			for sc.Scan() {
			}
			// The engine restored from the section's rows is the one
			// IngestBatch builds from colfmt.Decode of its records blob.
			got := stream.Restore(stream.Config{}, sn.log)
			want := stream.New(stream.Config{})
			want.IngestBatch(decodeSectionRecords(t, sn.section))
			if !reflect.DeepEqual(got.LiveView().Faults, want.LiveView().Faults) || got.Summary() != want.Summary() ||
				!reflect.DeepEqual(got.Features(), want.Features()) || !reflect.DeepEqual(got.Records(), want.Records()) {
				t.Fatalf("site %s: restored engine differs from the IngestBatch replay", sn.id)
			}
		}
	})
}

// decodeSectionRecords is colfmt.Decode's CE records of a section's
// records blob.
func decodeSectionRecords(t *testing.T, sec []byte) []mce.CERecord {
	t.Helper()
	r := &stateReader{data: sec}
	n, err := r.count("checkpoint")
	if err == nil {
		r.off += n
		if _, err = r.header("shed"); err == nil {
			n, err = r.count("records")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	recs, err := colfmt.Decode(sec[r.off : r.off+n])
	if err != nil {
		t.Fatalf("a loaded section's records do not decode: %v", err)
	}
	return recs.CEs
}

// ringPositionImage is an unsealed state image whose scanner checkpoint
// holds a full 4-line dedup ring with its next-overwrite position set to
// rpos.
func ringPositionImage(t testing.TB, ces []mce.CERecord, rpos int) []byte {
	t.Helper()
	var log []byte
	for _, ce := range ces[:6] {
		log = append(syslog.AppendCE(log, ce), '\n')
	}
	sc := syslog.NewScannerConfig(bytes.NewReader(log), syslog.ScanConfig{DedupWindow: 4})
	for sc.Scan() {
	}
	cp := sc.Checkpoint()
	cpb, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	img := marshalSnapshots(t, []siteSnapshot{{id: "default", cp: cp}})
	spliced := bytes.Replace(cpb, []byte("\nrpos 2\n"), fmt.Appendf(nil, "\nrpos %d\n", rpos), 1)
	old := fmt.Appendf(nil, "checkpoint %d\n%s", len(cpb), cpb)
	if bytes.Equal(spliced, cpb) || !bytes.Contains(img, old) {
		t.Fatalf("fixture checkpoint moved:\n%s", img)
	}
	return bytes.Replace(img, old, fmt.Appendf(nil, "checkpoint %d\n%s", len(spliced), spliced), 1)
}
