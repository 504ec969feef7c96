package dataset

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
	"repro/internal/corrupt"
)

var (
	smallDSOnce sync.Once
	smallDS     *Dataset
	smallDSErr  error
)

// smallDataset builds a compact dataset once, shared (read-only) by all
// ingest tests — Build is the dominant cost here, especially under -race.
func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	smallDSOnce.Do(func() {
		cfg := DefaultConfig(77)
		cfg.Nodes = 48
		smallDS, smallDSErr = Build(testCtx, cfg)
	})
	if smallDSErr != nil {
		t.Fatal(smallDSErr)
	}
	return smallDS
}

func TestReadSyslogPolicyCleanMatchesDefault(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 10); err != nil {
		t.Fatal(err)
	}
	clean := buf.String()

	// With only a reorder window (the clean log is already time-ordered)
	// nothing may change: no malformed lines, no drops, exact counts.
	ces, dues, hets, rep, err := ReadSyslogPolicy(strings.NewReader(clean), IngestPolicy{
		ReorderWindow: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Malformed != 0 || rep.DroppedOutOfOrder != 0 || rep.BudgetExceeded {
		t.Errorf("clean log flagged dirty: %+v", rep)
	}
	if len(ces) != len(ds.CERecords) || len(dues) != len(ds.DUERecords) || len(hets) != len(ds.HETRecords) {
		t.Errorf("reorder policy changed clean record counts: %d/%d/%d vs %d/%d/%d (report %+v)",
			len(ces), len(dues), len(hets),
			len(ds.CERecords), len(ds.DUERecords), len(ds.HETRecords), rep)
	}

	// Dedup is lossy on purpose: a burst hammering one cell renders as
	// byte-identical lines, indistinguishable from relay duplication (the
	// ambiguity real field data has too). The accounting must balance —
	// every suppressed line is counted, none silently vanish.
	ces2, _, _, rep2, err := ReadSyslogPolicy(strings.NewReader(clean), IngestPolicy{DedupWindow: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(ces2)+rep2.Duplicated != len(ds.CERecords) {
		t.Errorf("dedup accounting imbalance: %d kept + %d suppressed != %d generated",
			len(ces2), rep2.Duplicated, len(ds.CERecords))
	}
}

func TestReadSyslogPolicyCorrupted(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 10); err != nil {
		t.Fatal(err)
	}
	var dirty bytes.Buffer
	crep, err := corrupt.New(corrupt.Uniform(5, 0.02)).Process(&buf, &dirty)
	if err != nil {
		t.Fatal(err)
	}
	if crep.Mutations() == 0 {
		t.Fatal("corruptor did nothing")
	}

	ces, _, _, rep, err := ReadSyslogPolicy(bytes.NewReader(dirty.Bytes()), IngestPolicy{
		DedupWindow:      32,
		ReorderWindow:    5 * time.Minute,
		MaxMalformedFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Malformed == 0 {
		t.Error("corrupted log reported no malformed lines")
	}
	if rep.Truncated+rep.Garbage != rep.Malformed {
		t.Errorf("category accounting broken: %+v", rep)
	}
	if rep.Duplicated == 0 {
		t.Error("relay duplicates not suppressed")
	}
	// Most records should survive 2% corruption.
	if float64(len(ces)) < 0.9*float64(len(ds.CERecords)) {
		t.Errorf("lost too many CEs: %d of %d", len(ces), len(ds.CERecords))
	}
}

func TestReadSyslogPolicyMalformedBudget(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var dirty bytes.Buffer
	if _, err := corrupt.New(corrupt.Config{Seed: 5, Truncate: 0.2}).Process(&buf, &dirty); err != nil {
		t.Fatal(err)
	}

	_, _, _, rep, err := ReadSyslogPolicy(bytes.NewReader(dirty.Bytes()), IngestPolicy{MaxMalformedFrac: 0.01})
	if err == nil || !rep.BudgetExceeded {
		t.Errorf("20%% truncation passed a 1%% malformed budget: err=%v report=%+v", err, rep)
	}
	// The salvage is still returned alongside the error.
	if rep.CEs == 0 {
		t.Error("budget failure discarded the salvageable records")
	}

	// A generous budget passes.
	buf.Reset()
	if err := ds.WriteSyslog(&buf, 0); err != nil {
		t.Fatal(err)
	}
	dirty.Reset()
	if _, err := corrupt.New(corrupt.Config{Seed: 5, Truncate: 0.2}).Process(&buf, &dirty); err != nil {
		t.Fatal(err)
	}
	if _, _, _, rep, err := ReadSyslogPolicy(bytes.NewReader(dirty.Bytes()), IngestPolicy{MaxMalformedFrac: 0.5}); err != nil {
		t.Errorf("20%% truncation failed a 50%% budget: %v (report %+v)", err, rep)
	}
}

func TestReadSyslogPolicyStrict(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var dirty bytes.Buffer
	if _, err := corrupt.New(corrupt.Config{Seed: 5, Truncate: 0.1}).Process(&buf, &dirty); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadSyslogPolicy(bytes.NewReader(dirty.Bytes()), IngestPolicy{Strict: true}); err == nil {
		t.Error("strict policy accepted a corrupted log")
	}
}

// TestReadCETelemetryCSVLenient checks that the dirty CE CSV, corrupted
// the way Export corrupts it, stays salvageable by a reader that skips
// the rows it cannot use: the header passes through, the corruption
// damages some rows, and at least 70% of the clean rows come through
// byte for byte. 5% line corruption costs more than 5% of the rows (a
// dropped run takes 8 lines; a torn row can swallow its neighbour).
func TestReadCETelemetryCSVLenient(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteCETelemetryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	clean := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var dirty bytes.Buffer
	if _, err := corrupt.New(corrupt.Uniform(ds.Config.Seed, 0.05)).ProcessCSV(bytes.NewReader(buf.Bytes()), &dirty); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(dirty.String(), "\n")
	if got[0] != clean[0] {
		t.Fatalf("dirty header = %q, want %q", got[0], clean[0])
	}
	left := map[string]int{}
	for _, line := range got[1:] {
		left[line]++
	}
	kept, rows := 0, len(clean)-1
	for _, line := range clean[1:] {
		if left[line] > 0 {
			left[line]--
			kept++
		}
	}
	if kept == rows {
		t.Error("5% corruption left every row intact")
	}
	if float64(kept) < 0.7*float64(rows) {
		t.Errorf("salvageable rows = %d of %d", kept, rows)
	}
}

// TestReadRecordsSniffsColfmt proves the sniffing reader routes a
// columnar replay file to the binary decoder and returns exactly the
// records the dataset holds — the same streams the syslog text encodes,
// without any text parsing.
func TestReadRecordsSniffsColfmt(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := colfmt.Write(&buf, colfmt.Records{
		CEs: ds.CERecords, DUEs: ds.DUERecords, HETs: ds.HETRecords,
	}); err != nil {
		t.Fatal(err)
	}
	ces, dues, hets, rep, err := ReadRecords(bytes.NewReader(buf.Bytes()), IngestPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ces, ds.CERecords) || !reflect.DeepEqual(dues, ds.DUERecords) || !reflect.DeepEqual(hets, ds.HETRecords) {
		t.Fatal("columnar replay diverged from dataset records")
	}
	if rep.CEs != len(ces) || rep.DUEs != len(dues) || rep.HETs != len(hets) {
		t.Errorf("report counts (%d,%d,%d) != stream lengths (%d,%d,%d)",
			rep.CEs, rep.DUEs, rep.HETs, len(ces), len(dues), len(hets))
	}
	if rep.Lines != 0 || rep.Malformed != 0 {
		t.Errorf("columnar path reported text-parse counters: %+v", rep.ScanStats)
	}

	// Corruption in a columnar file is a hard error, never a salvage.
	mut := append([]byte(nil), buf.Bytes()...)
	mut[len(mut)/2] ^= 0x40
	if _, _, _, _, err := ReadRecords(bytes.NewReader(mut), IngestPolicy{}); err == nil {
		t.Error("corrupted columnar file read without error")
	}
}

// TestReadRecordsSniffsSyslog proves text input falls through to the
// policy reader with identical results.
func TestReadRecordsSniffsSyslog(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 10); err != nil {
		t.Fatal(err)
	}
	wantCEs, wantDUEs, wantHETs, wantRep, err := ReadSyslogPolicy(bytes.NewReader(buf.Bytes()), IngestPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ces, dues, hets, rep, err := ReadRecords(bytes.NewReader(buf.Bytes()), IngestPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ces, wantCEs) || !reflect.DeepEqual(dues, wantDUEs) || !reflect.DeepEqual(hets, wantHETs) {
		t.Fatal("records diverged from the policy read")
	}
	if !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("report %+v != %+v", rep, wantRep)
	}
}

// TestExportIncludesColumnarReplay checks the export tree carries the
// columnar artifact and that reading it back yields the dataset records.
func TestExportIncludesColumnarReplay(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	rep, err := ds.Export(testCtx, atomicio.OS, dir, ExportOptions{
		SensorNodeStride: 50, SensorMinuteStride: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Files {
		if f.Name == "astra-records.col" {
			found = true
		}
	}
	if !found {
		t.Fatalf("astra-records.col missing from export report: %+v", rep.Files)
	}
	f, err := atomicio.OS.Open(filepath.Join(dir, "astra-records.col"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ces, dues, hets, _, err := ReadRecords(f, IngestPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ces) != len(ds.CERecords) || len(dues) != len(ds.DUERecords) || len(hets) != len(ds.HETRecords) {
		t.Fatalf("exported columnar counts (%d,%d,%d) != dataset (%d,%d,%d)",
			len(ces), len(dues), len(hets), len(ds.CERecords), len(ds.DUERecords), len(ds.HETRecords))
	}
}
