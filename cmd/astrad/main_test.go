package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

const (
	testDedup   = 64
	testReorder = 5 * time.Minute
)

var (
	logOnce  sync.Once
	logBytes []byte
	logCEs   []mce.CERecord
	logErr   error
)

// testLog renders a small dataset's syslog once, with a far-future HET
// sentinel appended so the reorder window releases every CE before it —
// the expected engine contents are then exactly the batch scan's CEs.
func testLog(t testing.TB) ([]byte, []mce.CERecord) {
	t.Helper()
	logOnce.Do(func() {
		cfg := dataset.DefaultConfig(61)
		cfg.Nodes = 48
		ds, err := dataset.Build(context.Background(), cfg)
		if err != nil {
			logErr = err
			return
		}
		var buf bytes.Buffer
		if err := ds.WriteSyslog(&buf, 50); err != nil {
			logErr = err
			return
		}
		var maxT time.Time
		for _, r := range ds.CERecords {
			if r.Time.After(maxT) {
				maxT = r.Time
			}
		}
		sentinel := het.Record{
			Time:     maxT.Add(testReorder + time.Minute),
			Node:     ds.CERecords[0].Node,
			Type:     het.UncorrectableECC,
			Severity: het.SeverityNonRecoverable,
		}
		buf.WriteString(syslog.FormatHET(sentinel))
		buf.WriteByte('\n')
		logBytes = buf.Bytes()

		pol := dataset.IngestPolicy{DedupWindow: testDedup, ReorderWindow: testReorder, MaxMalformedFrac: -1}
		logCEs, _, _, _, logErr = dataset.ReadSyslogPolicy(bytes.NewReader(logBytes), pol)
	})
	if logErr != nil {
		t.Fatal(logErr)
	}
	return logBytes, logCEs
}

// syncBuf is a concurrency-safe buffer for the daemon's stderr.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var (
	addrRE     = regexp.MustCompile(`msg=listening addr=([0-9.]+:[0-9]+)`)
	restoredRE = regexp.MustCompile(`msg=restored site=default records=[1-9][0-9]* bytes=[1-9][0-9]* elapsed=[0-9.]+[µnm]?s `)
)

// startDaemon launches run() in-process and waits for its listen address.
func startDaemon(t *testing.T, logPath, statePath string) (addr string, cancel context.CancelFunc, done chan int, errs *syncBuf) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	errs = &syncBuf{}
	done = make(chan int, 1)
	args := []string{
		"-log", logPath, "-state", statePath, "-listen", "127.0.0.1:0",
		"-dedup-window", fmt.Sprint(testDedup), "-reorder-window", testReorder.String(),
		"-checkpoint-every", "100ms",
		"-dimms", fmt.Sprint(48 * topology.SlotsPerNode),
	}
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

func httpGetJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

// waitForRecords polls /v1/breakdown until the engine reports want
// records.
func waitForRecords(t *testing.T, addr string, want int) stream.Summary {
	t.Helper()
	// Generous: multi-site ingest under -race on a small box is easily
	// 10-20x slower than native (a single-core runner has been measured
	// needing ~150s); polling returns the moment the count is reached,
	// so a passing run never waits this long.
	deadline := time.Now().Add(300 * time.Second)
	var sum stream.Summary
	for {
		httpGetJSON(t, "http://"+addr+"/v1/breakdown", &sum)
		if sum.Records >= want {
			return sum
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at %d of %d records", sum.Records, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonKillRestartDifferential is the acceptance test: kill the
// daemon mid-stream, append more log, restart it over the same state
// file, and the final fault population must be exactly what the batch
// pipeline computes over the whole log — nothing lost, nothing
// duplicated, reorder buffer included.
func TestDaemonKillRestartDifferential(t *testing.T) {
	full, ces := testLog(t)
	wantFaults := mustCluster(t, ces)
	wantBreak := core.BreakdownByMode(ces, wantFaults)

	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")

	// Phase 1: daemon over roughly the first half, cut at a line boundary.
	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs := startDaemon(t, logPath, statePath)
	var h struct {
		Records int `json:"records"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Records == 0 {
		if code := httpGetJSON(t, "http://"+addr+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("no records ingested in phase 1")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // SIGTERM equivalent: context cancellation
	if code := <-done; code != 0 {
		t.Fatalf("phase 1 exit = %d; stderr:\n%s", code, errs.String())
	}
	if !strings.Contains(errs.String(), "msg=checkpoint") {
		t.Fatalf("phase 1 never checkpointed; stderr:\n%s", errs.String())
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no state file after shutdown: %v", err)
	}

	// Append the rest and restart over the same state.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	addr, cancel, done, errs = startDaemon(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	sum := waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) {
		t.Fatalf("records = %d, want %d (lost or duplicated input)", sum.Records, len(ces))
	}
	if sum.Faults != len(wantFaults) {
		t.Fatalf("faults = %d, want %d", sum.Faults, len(wantFaults))
	}
	if sum.FaultsByMode != wantBreak.FaultsByMode {
		t.Fatalf("FaultsByMode = %v, want %v", sum.FaultsByMode, wantBreak.FaultsByMode)
	}
	if sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("ErrorsByMode = %v, want %v", sum.ErrorsByMode, wantBreak.ErrorsByMode)
	}
	// The restore cost is readable from the log alone.
	if !restoredRE.MatchString(errs.String()) {
		t.Fatalf("restored line lacks bytes/elapsed; stderr:\n%s", errs.String())
	}
	var faults struct {
		Count int `json:"count"`
	}
	httpGetJSON(t, "http://"+addr+"/v1/faults", &faults)
	if faults.Count != len(wantFaults) {
		t.Fatalf("/v1/faults count = %d, want %d", faults.Count, len(wantFaults))
	}
	var fit struct {
		Overall core.FaultRates `json:"overall"`
	}
	httpGetJSON(t, "http://"+addr+"/v1/fit", &fit)
	if fit.Overall.Degraded {
		t.Fatal("overall FIT degraded after full ingest")
	}
}

func mustCluster(t *testing.T, ces []mce.CERecord) []core.Fault {
	t.Helper()
	faults, err := core.Cluster(context.Background(), ces, core.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	return faults
}

// TestDaemonSustainedIngest checks /healthz and /metrics answer while the
// log is growing under the scanner.
func TestDaemonSustainedIngest(t *testing.T) {
	full, _ := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs := startDaemon(t, logPath, filepath.Join(dir, "state"))
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("exit = %d; stderr:\n%s", code, errs.String())
		}
	}()

	// Append in slices while hammering the endpoints.
	step := len(full) / 20
	for off := 0; off < len(full); off += step {
		end := off + step
		if end > len(full) {
			end = len(full)
		}
		f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[off:end]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if code := httpGetJSON(t, "http://"+addr+"/healthz", nil); code != http.StatusOK {
			t.Fatalf("healthz = %d during ingest", code)
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics = %d during ingest", resp.StatusCode)
		}
		if !bytes.Contains(body, []byte("astrad_stream_records_total")) {
			t.Fatal("metrics exposition missing engine series")
		}
	}
}

// midScanCheckpoint returns a scanner checkpoint taken 25 lines into the
// test log, reorder buffer and dedup ring populated.
func midScanCheckpoint(t testing.TB) syslog.Checkpoint {
	t.Helper()
	in, _ := testLog(t)
	sc := syslog.NewScannerConfig(bytes.NewReader(in), syslog.ScanConfig{DedupWindow: testDedup, ReorderWindow: testReorder})
	for i := 0; i < 25; i++ {
		if !sc.Scan() {
			t.Fatal("fixture too short")
		}
	}
	return sc.Checkpoint()
}

// marshalState assembles one unsealed state image from per-site sections
// in memory, in site order: the reference the streamed persist must
// reproduce byte for byte (before its seal).
func marshalState(ids []string, secs [][]byte) []byte {
	b := fmt.Appendf(nil, "%s\nsites %d\n", stateMagic, len(secs))
	for i, sec := range secs {
		b = fmt.Appendf(b, "site %s\n", ids[i])
		b = append(b, sec...)
	}
	return b
}

// marshalSnapshots renders snapshots as one unsealed state image, the way
// persist writes the sections its sites publish.
func marshalSnapshots(t testing.TB, snaps []siteSnapshot) []byte {
	t.Helper()
	ids := make([]string, len(snaps))
	secs := make([][]byte, len(snaps))
	for i, sn := range snaps {
		sec, err := marshalSection(sn)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], secs[i] = sn.id, sec
	}
	return marshalState(ids, secs)
}

// sealState appends the checksum trailer persist writes.
func sealState(body []byte) []byte {
	return append(bytes.Clone(body), seal(body)...)
}

// blobSpan locates the records blob of the n-th site section in an
// unsealed image: the offset of its "records" header line and the blob's
// [start, end) bytes.
func blobSpan(t *testing.T, data []byte, n int) (header, start, end int) {
	t.Helper()
	for i := 0; i <= n; i++ {
		j := bytes.Index(data[header:], []byte("\nrecords "))
		if j < 0 {
			t.Fatalf("no section %d", n)
		}
		header += j + 1
	}
	start = header + bytes.IndexByte(data[header:], '\n') + 1
	size, err := strconv.Atoi(string(data[header+len("records ") : start-1]))
	if err != nil {
		t.Fatal(err)
	}
	return header, start, start + size
}

// logOf is a record log handle holding recs, what a capture's snapshot
// holds.
func logOf(recs []mce.CERecord) stream.RecordLog {
	return stream.New(stream.Config{}).RecordLog(recs)
}

// spliceBlob replaces the n-th site's records blob with a colfmt encoding
// of recs, fixing up the length header.
func spliceBlob(t *testing.T, data []byte, n int, recs colfmt.Records) []byte {
	t.Helper()
	var blob bytes.Buffer
	if err := colfmt.Write(&blob, recs); err != nil {
		t.Fatal(err)
	}
	return splice(t, data, n, blob)
}

// overrideCE is a CE source whose field f of record i reads v: how a test
// writes a value colfmt.Write never would (nanoseconds past a second)
// through the encoder itself.
type overrideCE struct {
	colfmt.CESlice
	f colfmt.CEField
	i int
	v int64
}

func (o overrideCE) Column(f colfmt.CEField, first int, dst []int64) {
	o.CESlice.Column(f, first, dst)
	if f == o.f && o.i >= first && o.i < first+len(dst) {
		dst[o.i-first] = o.v
	}
}

// spliceCE is spliceBlob for a CE-only encoding of src.
func spliceCE(t *testing.T, data []byte, n int, src colfmt.CEColumns) []byte {
	t.Helper()
	var blob bytes.Buffer
	if err := colfmt.WriteCE(&blob, src); err != nil {
		t.Fatal(err)
	}
	return splice(t, data, n, blob)
}

// emptyBlock is a checksummed colfmt column block of kind that covers no
// records: column 0, first 0, count 0, no payload.
func emptyBlock(kind byte) []byte {
	b := []byte{kind, 0, 0, 0, 0}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// splice replaces the n-th site's records blob with blob.
func splice(t *testing.T, data []byte, n int, blob bytes.Buffer) []byte {
	t.Helper()
	header, _, end := blobSpan(t, data, n)
	out := append([]byte(nil), data[:header]...)
	out = fmt.Appendf(out, "records %d\n", blob.Len())
	out = append(out, blob.Bytes()...)
	return append(out, data[end:]...)
}

// stateFixture is the two-site state the state-format tests share: east
// carries a mid-scan checkpoint, a shed count, records and a two-entry
// first-alarm ledger; west carries only records. data is its unsealed
// image.
func stateFixture(t *testing.T) (snaps []siteSnapshot, data []byte) {
	t.Helper()
	_, ces := testLog(t)
	snaps = []siteSnapshot{
		{id: "east", cp: midScanCheckpoint(t), shed: 3, log: logOf(ces[:10]), alarms: []alarmEntry{
			{key: core.RecordBankKey(&ces[0]), at: 1700000000000000001},
			{key: core.RecordBankKey(&ces[3]), at: 1700000000000000002},
		}},
		{id: "west", log: logOf(ces[10:14])}, // empty ledger
	}
	return snaps, marshalSnapshots(t, snaps)
}

// rejectSealed checks that every corrupt body fails to load. Each is
// sealed first, so only the parser can catch it.
func rejectSealed(t *testing.T, corrupt map[string][]byte) {
	t.Helper()
	for name, body := range corrupt {
		if _, err := unmarshal(sealState(body)); err == nil {
			t.Errorf("%s: corrupted state accepted", name)
		}
	}
}

// TestStateRoundTrip pins the daemon state file format: an image
// carrying scanner checkpoints, shed counts, columnar records and
// first-alarm ledgers round-trips exactly and re-marshals byte for byte,
// and damage to its header, its framing or a binary records blob is
// rejected even under a valid seal. TestStateV3RoundTrip covers the site
// list and TestStateV4RoundTrip the alarm ledgers.
func TestStateRoundTrip(t *testing.T) {
	_, ces := testLog(t)
	snaps, data := stateFixture(t)
	got, err := unmarshal(sealState(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].id != "east" || got[1].id != "west" {
		t.Fatalf("site ids round trip: %+v", got)
	}
	cp := snaps[0].cp
	if got[0].cp.Offset != cp.Offset || got[0].cp.Buffered() != cp.Buffered() {
		t.Fatalf("checkpoint round trip: offset %d/%d buffered %d/%d",
			got[0].cp.Offset, cp.Offset, got[0].cp.Buffered(), cp.Buffered())
	}
	if got[0].shed != 3 || got[1].shed != 0 {
		t.Fatalf("shed round trip: %d/%d", got[0].shed, got[1].shed)
	}
	for i, sn := range snaps {
		if !reflect.DeepEqual(got[i].log.Records(), sn.log.Records()) {
			t.Fatalf("%s records diverge after round trip", sn.id)
		}
	}
	if !reflect.DeepEqual(got[0].alarms, snaps[0].alarms) || len(got[1].alarms) != 0 {
		t.Fatalf("alarms round trip: %+v / %+v, want %+v / none", got[0].alarms, got[1].alarms, snaps[0].alarms)
	}
	for i, sn := range snaps {
		sec, err := marshalSection(sn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i].section, sec) {
			t.Fatalf("%s: loaded section is not the bytes its snapshot marshals to", sn.id)
		}
	}
	if data2 := marshalSnapshots(t, got); !bytes.Equal(data, data2) {
		t.Fatal("state marshal not deterministic through a round trip")
	}

	header, start, end := blobSpan(t, data, 0)
	flipped := bytes.Clone(data)
	flipped[(start+end)/2] ^= 0x40
	unterminated := bytes.Clone(data)
	unterminated[end] = 'x'
	pastEnd := append(append(bytes.Clone(data[:header]), fmt.Sprintf("records %d\n", len(data))...), data[start:]...)
	due := colfmt.Records{CEs: ces[:10], DUEs: []mce.DUERecord{{Time: ces[0].Time, Node: ces[0].Node}}}
	badBank := append([]mce.CERecord(nil), ces[:10]...)
	badBank[4].Bank = topology.BanksPerRank
	badLineBit := append([]mce.CERecord(nil), ces[:10]...)
	badLineBit[6].BitPos = 0x3ff
	// A value just past the width of the row field a restore narrows it
	// into (bank 16 is records-bad-bank): each would pass CheckRanges if
	// it were truncated.
	past := func(f func(r *mce.CERecord)) []byte {
		recs := append([]mce.CERecord(nil), ces[:10]...)
		f(&recs[5])
		return spliceBlob(t, data, 0, colfmt.Records{CEs: recs})
	}
	rejectSealed(t, map[string][]byte{
		"empty":                nil,
		"header":               []byte("nope\n"),
		"parent-magic":         bytes.Replace(data, []byte(stateMagic), []byte("astrad-state v4"), 1),
		"truncated":            data[:len(data)-3],
		"trailing":             append(bytes.Clone(data), "junk\n"...),
		"records-past-end":     pastEnd,
		"records-unterminated": unterminated,
		"records-flipped-byte": flipped,
		"records-due":          spliceBlob(t, data, 0, due),
		"records-bad-bank":     spliceBlob(t, data, 0, colfmt.Records{CEs: badBank}),
		"records-bad-linebit":  spliceBlob(t, data, 0, colfmt.Records{CEs: badLineBit}),
		"records-node-65539":   past(func(r *mce.CERecord) { r.Node = 1<<16 + 3 }),
		"records-row-65536":    past(func(r *mce.CERecord) { r.RowRaw = 1 << 16 }),
		"records-col-65536":    past(func(r *mce.CERecord) { r.Col = 1 << 16 }),
		"records-bitpos-2^21":  past(func(r *mce.CERecord) { r.BitPos = 1 << 21 }),
		"records-rank-4":       past(func(r *mce.CERecord) { r.Rank = 4 }),
	})
	// The splice itself is sound: the same blob, re-encoded, still loads.
	if _, err := unmarshal(sealState(spliceBlob(t, data, 0, colfmt.Records{CEs: ces[:10]}))); err != nil {
		t.Fatalf("re-spliced blob rejected: %v", err)
	}
	// An empty DUE or HET block beside the CE blocks, which colfmt.Decode
	// accepts, loads as the CE records: once, it panicked the decode.
	for _, kind := range []byte{2, 3} {
		var blob bytes.Buffer
		if err := colfmt.WriteCE(&blob, colfmt.CESlice(ces[:10])); err != nil {
			t.Fatal(err)
		}
		b := blob.Bytes()
		forged := append(append(b[:len(b)-1:len(b)-1], emptyBlock(kind)...), 0)
		got, err := unmarshal(sealState(splice(t, data, 0, *bytes.NewBuffer(forged))))
		if err != nil || !reflect.DeepEqual(got[0].log.Records(), ces[:10]) {
			t.Fatalf("empty kind %d block beside the CE blocks: %v", kind, err)
		}
	}
	// Nanoseconds outside [0, 1e9) — past a second, or a uvarint whose
	// bit pattern is negative — load normalized into the seconds, as
	// colfmt.Decode's time.Unix(sec, nsec) has always read them, and
	// re-encode as the normalized instant.
	for _, nsec := range []int64{1e9 + 5, -1} {
		src := overrideCE{colfmt.CESlice(ces[:10]), colfmt.CETimeNsec, 3, nsec}
		long, err := unmarshal(sealState(spliceCE(t, data, 0, src)))
		if err != nil {
			t.Fatalf("nanoseconds %d rejected: %v", nsec, err)
		}
		want := append([]mce.CERecord(nil), ces[:10]...)
		want[3].Time = time.Unix(want[3].Time.Unix(), nsec).UTC()
		if got := long[0].log.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("nanoseconds %d: record 3 loaded at %v, want %v", nsec, got[3].Time, want[3].Time)
		}
		var got, norm bytes.Buffer
		if err := colfmt.WriteCE(&got, long[0].log); err != nil {
			t.Fatal(err)
		}
		if err := colfmt.Write(&norm, colfmt.Records{CEs: want}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), norm.Bytes()) {
			t.Fatalf("nanoseconds %d: the loaded records re-encode unnormalized", nsec)
		}
	}
}

// TestPersistWritesComposedImage pins the streamed state write: the file
// persist writes from resident sections — header, sections and a seal
// over the running CRC — is byte for byte the sealed in-memory
// composition, and persist reports its size.
func TestPersistWritesComposedImage(t *testing.T) {
	snaps, _ := stateFixture(t)
	dir := t.TempDir()
	d := &daemon{cfg: daemonConfig{statePath: filepath.Join(dir, "astrad.state"), stateKeep: 2}, fs: atomicio.OS}
	ids := make([]string, len(snaps))
	secs := make([][]byte, len(snaps))
	for i, sn := range snaps {
		sec, err := marshalSection(sn)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], secs[i] = sn.id, sec
		d.sites = append(d.sites, &siteDaemon{id: sn.id})
	}
	for _, secs := range [][][]byte{secs, secs[:0]} {
		d.sites = d.sites[:len(secs)]
		size, err := d.persist(secs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(d.cfg.statePath)
		if err != nil {
			t.Fatal(err)
		}
		if want := sealState(marshalState(ids[:len(secs)], secs)); !bytes.Equal(got, want) {
			t.Fatalf("%d sites: persisted %d bytes differ from the sealed composition (%d bytes)", len(secs), len(got), len(want))
		}
		if size != int64(len(got)) {
			t.Fatalf("%d sites: persist reported %d bytes, wrote %d", len(secs), size, len(got))
		}
	}
}

// BenchmarkStateRestore measures a warm restart's state path over a
// ~100k-record section: the marshal a checkpoint pays, the unseal and
// decode into record log rows a restore pays, and the engine restore
// that takes the rows over and folds them — and a live checkpoint's
// capture: snapshotSection over an engine holding the records, the
// Freeze, ledger update and section encode a running astrad pays per
// checkpoint. Each reports ns/record and heap B/record.
func BenchmarkStateRestore(b *testing.B) {
	_, ces := testLog(b)
	// Tile the fixture, shifted in time, up to ~100k records.
	span := ces[len(ces)-1].Time.Sub(ces[0].Time) + time.Hour
	var recs []mce.CERecord
	for shift := time.Duration(0); len(recs) < 100_000; shift += span {
		for _, r := range ces {
			r.Time = r.Time.Add(shift)
			recs = append(recs, r)
		}
	}
	image := sealState(marshalSnapshots(b, []siteSnapshot{{id: "default", log: logOf(recs)}}))
	// parse is a freshly decoded snapshot: a restore takes its rows over,
	// so each restore needs its own.
	var snap siteSnapshot
	parse := func() error {
		snaps, err := unmarshal(image)
		if err == nil {
			snap = snaps[0]
		}
		return err
	}
	if err := parse(); err != nil {
		b.Fatal(err)
	}
	d := &daemon{
		cfg:       daemonConfig{queueDepth: 1024, window: stream.DefaultWindow, dimms: 48 * topology.SlotsPerNode},
		predictor: predict.DefaultRuleLadder(),
	}
	// perRecord runs op b.N times; prep, when set, runs before each op
	// with the timer stopped, and its allocations are not counted.
	perRecord := func(b *testing.B, prep, op func() error) {
		var before, after, ms runtime.MemStats
		var prepped uint64
		runtime.ReadMemStats(&before)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if prep != nil {
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				start := ms.TotalAlloc
				if err := prep(); err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				prepped += ms.TotalAlloc - start
				b.StartTimer()
			}
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N * len(recs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc-prepped)/n, "B/record")
	}
	b.Run("marshal", func(b *testing.B) {
		perRecord(b, nil, func() error { _, err := marshalSection(snap); return err })
	})
	b.Run("decode", func(b *testing.B) {
		perRecord(b, nil, func() error { _, err := unmarshal(image); return err })
	})
	b.Run("restore", func(b *testing.B) {
		perRecord(b, parse, func() error { d.buildPipeline(snap); return nil })
	})
	b.Run("capture", func(b *testing.B) {
		s := &siteDaemon{id: "default"}
		if err := parse(); err != nil {
			b.Fatal(err)
		}
		d.rebuild(s, snap)
		// Forget the published section, as a log that moved would, so
		// every capture encodes.
		forget := func() error { s.held = sectionSum{}; return nil }
		perRecord(b, forget, func() error { _, err := d.snapshotSection(s, syslog.Checkpoint{}); return err })
	})
}

// TestDaemonSIGTERMBinary is the end-to-end shutdown test against the
// real binary: SIGTERM mid-serve must drain, checkpoint, and exit 0.
func TestDaemonSIGTERMBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the astrad binary")
	}
	full, _ := testLog(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "astrad")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "astrad.state")

	cmd := exec.Command(bin,
		"-log", logPath, "-state", statePath, "-listen", "127.0.0.1:0",
		"-checkpoint-every", "100ms")
	errs := &syncBuf{}
	cmd.Stderr = errs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	deadline := time.Now().Add(20 * time.Second)
	for addr == "" {
		if m := addrRE.FindStringSubmatch(errs.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; stderr:\n%s", errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := httpGetJSON(t, "http://"+addr+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err != nil {
		t.Fatalf("SIGTERM exit: %v; stderr:\n%s", err, errs.String())
	}
	out := errs.String()
	if !strings.Contains(out, "msg=\"shutting down\"") || !strings.Contains(out, "msg=stopped") {
		t.Fatalf("shutdown not logged; stderr:\n%s", out)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no state file after SIGTERM: %v", err)
	}
}
