package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// startDaemonCustom launches run() in-process with a fully caller-built
// argument list (multi-site runs have no single -log flag) and waits for
// the listen address.
func startDaemonCustom(t *testing.T, args ...string) (addr string, cancel context.CancelFunc, done chan int, errs *syncBuf) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	errs = &syncBuf{}
	done = make(chan int, 1)
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

// buildSiteLog renders an independent dataset's syslog with the same
// far-future HET sentinel trick as testLog, so a second federated site
// has its own distinct record population.
func buildSiteLog(t *testing.T, seed uint64, nodes int) ([]byte, []mce.CERecord) {
	t.Helper()
	cfg := dataset.DefaultConfig(seed)
	cfg.Nodes = nodes
	ds, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 50); err != nil {
		t.Fatal(err)
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

	pol := dataset.IngestPolicy{DedupWindow: testDedup, ReorderWindow: testReorder, MaxMalformedFrac: -1}
	ces, _, _, _, err := dataset.ReadSyslogPolicy(bytes.NewReader(buf.Bytes()), pol)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ces
}

// TestDaemonMultiSiteFederationRestart drives a two-site daemon: each
// site tails its own log into its own engine, /v1/sites and the
// site-scoped endpoints see per-site state, the legacy endpoints roll
// both up, and a shutdown/restart over the state file restores each
// site exactly.
func TestDaemonMultiSiteFederationRestart(t *testing.T) {
	logA, cesA := testLog(t)
	logB, cesB := buildSiteLog(t, 71, 24)
	faultsA := mustCluster(t, cesA)
	faultsB := mustCluster(t, cesB)

	dir := t.TempDir()
	pathA := filepath.Join(dir, "east.log")
	pathB := filepath.Join(dir, "west.log")
	statePath := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(pathA, logA, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathB, logB, 0o644); err != nil {
		t.Fatal(err)
	}

	args := []string{
		"-site", "east=" + pathA, "-site", "west=" + pathB,
		"-state", statePath, "-listen", "127.0.0.1:0",
		"-dedup-window", fmt.Sprint(testDedup), "-reorder-window", testReorder.String(),
		"-checkpoint-every", "50ms",
		"-dimms", fmt.Sprint(48 * topology.SlotsPerNode),
	}
	addr, cancel, done, errs := startDaemonCustom(t, args...)
	sum := waitForRecords(t, addr, len(cesA)+len(cesB))
	if sum.Records != len(cesA)+len(cesB) {
		t.Fatalf("rollup records = %d, want %d", sum.Records, len(cesA)+len(cesB))
	}

	var sites struct {
		Count int `json:"count"`
		Sites []struct {
			ID      string `json:"id"`
			Records int    `json:"records"`
		} `json:"sites"`
	}
	httpGetJSON(t, "http://"+addr+"/v1/sites", &sites)
	if sites.Count != 2 {
		t.Fatalf("site count = %d, want 2", sites.Count)
	}
	perSite := map[string]int{}
	for _, s := range sites.Sites {
		perSite[s.ID] = s.Records
	}
	if perSite["east"] != len(cesA) || perSite["west"] != len(cesB) {
		t.Fatalf("per-site records = %v, want east=%d west=%d", perSite, len(cesA), len(cesB))
	}

	var east stream.Summary
	httpGetJSON(t, "http://"+addr+"/v1/sites/east/breakdown", &east)
	if east.Records != len(cesA) {
		t.Fatalf("east breakdown records = %d, want %d", east.Records, len(cesA))
	}
	var west stream.Summary
	httpGetJSON(t, "http://"+addr+"/v1/sites/west/breakdown", &west)
	if west.Records != len(cesB) {
		t.Fatalf("west breakdown records = %d, want %d", west.Records, len(cesB))
	}
	if code := httpGetJSON(t, "http://"+addr+"/v1/sites/nope/faults", nil); code != http.StatusNotFound {
		t.Fatalf("unknown site = %d, want 404", code)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`astrad_site_records_total{site="east"}`,
		`astrad_site_records_total{site="west"}`,
		"astrad_ingest_lines_total",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("multi-site shutdown exit = %d; stderr:\n%s", code, errs.String())
	}
	state, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(state, []byte(stateMagic+"\nsites 2\n")) {
		t.Fatalf("multi-site state header: %q", state[:min(len(state), 40)])
	}

	// Restart over that state: every site restores exactly, and the
	// fault populations match the batch answers per site.
	addr, cancel, done, errs = startDaemonCustom(t, args...)
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("restart exit = %d; stderr:\n%s", code, errs.String())
		}
	}()
	sum = waitForRecords(t, addr, len(cesA)+len(cesB))
	httpGetJSON(t, "http://"+addr+"/v1/sites/east/breakdown", &east)
	httpGetJSON(t, "http://"+addr+"/v1/sites/west/breakdown", &west)
	if east.Records != len(cesA) || west.Records != len(cesB) {
		t.Fatalf("restored per-site records east=%d west=%d, want %d/%d",
			east.Records, west.Records, len(cesA), len(cesB))
	}
	if east.Faults != len(faultsA) {
		t.Fatalf("east faults = %d, want batch %d", east.Faults, len(faultsA))
	}
	if west.Faults != len(faultsB) {
		t.Fatalf("west faults = %d, want batch %d", west.Faults, len(faultsB))
	}
	if sum.Faults != len(faultsA)+len(faultsB) {
		t.Fatalf("rollup faults = %d, want %d", sum.Faults, len(faultsA)+len(faultsB))
	}
}

// TestStateV3RoundTrip pins the site list of the state file, the layer
// the multi-site v3 format introduced and the one format keeps: a sealed
// image on disk loads through loadStateLadder as its sites in file order, each
// with its own checkpoint, shed count and records; the loaded sections
// are slices of the file that tile it under their site headers; a
// missing file is a fresh start; and a damaged site list is rejected.
func TestStateV3RoundTrip(t *testing.T) {
	snaps, data := stateFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(path, sealState(data), 0o644); err != nil {
		t.Fatal(err)
	}
	got, gen, discarded, err := loadStateLadder(atomicio.OS, path, 1)
	if err != nil || gen != 0 || len(discarded) > 0 {
		t.Fatalf("loadStateLadder: generation %d, discarded %v, %v", gen, discarded, err)
	}
	if len(got) != len(snaps) {
		t.Fatalf("loadStateLadder: %d sites, want %d", len(got), len(snaps))
	}
	ids := make([]string, len(got))
	secs := make([][]byte, len(got))
	for i, sn := range snaps {
		g := got[i]
		if g.id != sn.id || g.shed != sn.shed || g.cp.Offset != sn.cp.Offset ||
			g.cp.Buffered() != sn.cp.Buffered() || !reflect.DeepEqual(g.log.Records(), sn.log.Records()) {
			t.Fatalf("site %d: loaded %s (shed %d, offset %d, %d records), want %s (shed %d, offset %d, %d records)",
				i, g.id, g.shed, g.cp.Offset, g.log.Len(), sn.id, sn.shed, sn.cp.Offset, sn.log.Len())
		}
		ids[i], secs[i] = g.id, g.section
	}
	if !bytes.Equal(marshalState(ids, secs), data) {
		t.Fatal("loaded sections do not reassemble the image")
	}
	if snaps, gen, _, err := loadStateLadder(atomicio.OS, filepath.Join(dir, "missing.state"), 1); err != nil || gen != -1 || snaps != nil {
		t.Fatalf("missing state file not a fresh start: %d sites, %v", len(snaps), err)
	}

	rejectSealed(t, map[string][]byte{
		"sitecount":      bytes.Replace(data, []byte("sites 2"), []byte("sites x"), 1),
		"undercount":     bytes.Replace(data, []byte("sites 2"), []byte("sites 1"), 1),
		"overcount":      bytes.Replace(data, []byte("sites 2"), []byte("sites 3"), 1),
		"huge-sitecount": bytes.Replace(data, []byte("sites 2"), []byte("sites 99999999999"), 1),
		"site-header":    bytes.Replace(data, []byte("site west\n"), []byte("place west\n"), 1),
		"empty-site-id":  bytes.Replace(data, []byte("site west\n"), []byte("site \n"), 1),
		"dup-site":       bytes.Replace(data, []byte("site west"), []byte("site east"), 1),
		"shed":           bytes.Replace(data, []byte("\nshed 3\n"), []byte("\nshed x\n"), 1),
	})
}

// TestSiteFlagValidation pins the -site flag's error cases.
func TestSiteFlagValidation(t *testing.T) {
	var errs syncBuf
	for _, args := range [][]string{
		{"-site", "bad"},                 // no '='
		{"-site", "=path"},               // empty id
		{"-site", "id="},                 // empty path
		{"-site", "a=x", "-site", "a=y"}, // duplicate id
		{"-site", "a b=x"},               // whitespace in id
		{"-log", "x", "-site", "a=y"},    // -log and -site together
		{},                               // neither
	} {
		if code := run(context.Background(), args, io.Discard, &errs); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
	if !strings.Contains(errs.String(), "mutually exclusive") {
		t.Error("no -log/-site conflict message")
	}

	// The id is written unescaped into /metrics label values, so a quote,
	// a backslash or a control character would break every scrape. A
	// daemon that accepted one would run until the context ends.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	logPath := filepath.Join(t.TempDir(), "astra-syslog.log")
	for _, id := range []string{`a"b`, `a\b`, "a\x00b", "a\rb", "a\x7fb"} {
		var errs syncBuf
		args := []string{"-site", id + "=" + logPath, "-listen", "127.0.0.1:0"}
		if code := run(ctx, args, io.Discard, &errs); code != 2 {
			t.Errorf("site id %q: exit %d, want 2", id, code)
		}
		if !strings.Contains(errs.String(), "control characters") {
			t.Errorf("site id %q: stderr lacks the id rule:\n%s", id, errs.String())
		}
	}
}
