package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestStateV4RoundTrip pins the first-alarm ledgers of the state file,
// the part the v4 format introduced and the one format keeps: each
// site's ledger round-trips exactly through its in-memory section (the
// path a supervised restart takes), an empty ledger stays empty, the
// section re-marshals byte for byte, and damage to the alarms part is
// rejected — including rank and bank values that would wrap in an int8
// and a count larger than the file.
func TestStateV4RoundTrip(t *testing.T) {
	snaps, data := stateFixture(t)
	for _, sn := range snaps {
		sec, err := marshalSection(sn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseSection(sec, sn.id)
		if err != nil {
			t.Fatalf("%s: %v", sn.id, err)
		}
		if len(got.alarms) != len(sn.alarms) || len(sn.alarms) > 0 && !reflect.DeepEqual(got.alarms, sn.alarms) {
			t.Fatalf("%s alarms round trip: %+v, want %+v", sn.id, got.alarms, sn.alarms)
		}
		again, err := marshalSection(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, sec) {
			t.Fatalf("%s: section marshal not deterministic through a round trip", sn.id)
		}
		if _, err := parseSection(sec[:len(sec)-3], sn.id); err == nil {
			t.Errorf("%s: truncated section accepted", sn.id)
		}
	}

	first := snaps[0].alarms[0]
	alarmLine := func(rank, bank int) []byte {
		return fmt.Appendf(nil, "alarm %s %d %d %d %d\n", first.key.Node, int(first.key.Slot), rank, bank, first.at)
	}
	firstLine := alarmLine(int(first.key.Rank), int(first.key.Bank))
	if !bytes.Contains(data, firstLine) {
		t.Fatalf("fixture: %q not in the image", firstLine)
	}
	rejectSealed(t, map[string][]byte{
		"alarms-header":    bytes.Replace(data, []byte("\nalarms 2\n"), []byte("\nalarms x\n"), 1),
		"alarm-line":       bytes.Replace(data, []byte("alarm astra-"), []byte("alarm nonsense-"), 1),
		"alarm-count":      bytes.Replace(data, []byte("\nalarms 2\n"), []byte("\nalarms 3\n"), 1),
		"huge-alarm-count": bytes.Replace(data, []byte("\nalarms 2\n"), []byte("\nalarms 99999999999\n"), 1),
		"alarm-rank":       bytes.Replace(data, firstLine, alarmLine(300, 0), 1),
		"alarm-bank":       bytes.Replace(data, firstLine, alarmLine(0, topology.BanksPerRank), 1),
	})
}

var alarmedGaugeRE = regexp.MustCompile(`astrad_predict_alarmed_banks ([0-9.e+]+)`)

// TestDaemonAlarmLedgerSurvivesRestart is the prediction-layer
// kill/restart test: kill the daemon after banks have alarmed, restart
// it over the same state, and (a) the live risk ranking matches a batch
// feature computation over the whole log — the feature state rebuilt
// exactly — and (b) every first-alarm timestamp survives byte-for-byte,
// so lead-time accounting never re-stamps across restarts.
func TestDaemonAlarmLedgerSurvivesRestart(t *testing.T) {
	full, ces := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")

	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	quarter := bytes.LastIndexByte(full[:cut/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:quarter], 0o644); err != nil {
		t.Fatal(err)
	}

	// Threshold 0.1: any bank passing the ladder's first rung (>= 2 CEs)
	// alarms, so the fixture's first half is guaranteed to populate the
	// ledger.
	extra := []string{"-risk-threshold", "0.1", "-checkpoint-every", "50ms"}
	addr, cancel, done, errs := startDaemonArgs(t, logPath, statePath, extra...)

	// However fast the scan, let the first quarter settle into the
	// engine and the interval pass before the second quarter arrives: the
	// checkpoint captured at the tail's wait, or at the second quarter's
	// first record, has a ledger covering the first quarter's banks.
	settled, prev := 0, -1
	for deadline := time.Now().Add(10 * time.Second); settled < 3; {
		var h struct {
			Records int `json:"records"`
		}
		if code := httpGetJSON(t, "http://"+addr+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		if h.Records > 0 && h.Records == prev {
			settled++
		} else {
			settled = 0
		}
		prev = h.Records
		if time.Now().After(deadline) {
			t.Fatalf("first quarter never settled (%d records)", h.Records)
		}
		time.Sleep(30 * time.Millisecond)
	}
	appendLog(t, logPath, full[quarter:cut])

	// Wait until a checkpoint carrying alarms lands on disk. The state
	// file is written atomically, but the generation ladder can leave a
	// brief gap at the head path — retry through it.
	deadline := time.Now().Add(150 * time.Second)
	for {
		data, err := os.ReadFile(statePath)
		if err == nil {
			if snaps, derr := unmarshal(data); derr == nil && len(snaps) == 1 && len(snaps[0].alarms) > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("no alarms checkpointed; stderr:\n%s", errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 1 exit = %d; stderr:\n%s", code, errs.String())
	}

	state, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(state, []byte(stateMagic+"\n")) {
		t.Fatalf("state header: %q", state[:min(len(state), 40)])
	}
	snaps, err := unmarshal(state)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("phase 1 state: %d sites, %v", len(snaps), err)
	}
	firstAlarms := make(map[core.BankKey]int64, len(snaps[0].alarms))
	for _, a := range snaps[0].alarms {
		firstAlarms[a.key] = a.at
	}
	if len(firstAlarms) == 0 {
		t.Fatal("phase 1 ledger empty")
	}

	// Phase 2: the rest of the log, restart over the same state.
	appendLog(t, logPath, full[cut:])

	addr, cancel, done, errs = startDaemonArgs(t, logPath, statePath, extra...)
	waitForRecords(t, addr, len(ces))

	// Feature state rebuilt exactly: the served ranking agrees with a
	// batch tracker over the whole log — same bank count, same top score.
	tr := predict.NewTracker(predict.TrackerConfig{
		Window:      stream.DefaultWindow,
		RateBuckets: stream.DefaultRateBuckets,
	})
	for i := range ces {
		tr.Observe(&ces[i])
	}
	want := tr.Features(tr.Last())
	scores := predict.SortByRisk(want, predict.DefaultRuleLadder())
	var ar struct {
		Banks  int `json:"banks"`
		AtRisk []struct {
			Score float64 `json:"score"`
		} `json:"atRisk"`
	}
	if code := httpGetJSON(t, "http://"+addr+"/v1/atrisk", &ar); code != http.StatusOK {
		t.Fatalf("/v1/atrisk = %d after restart", code)
	}
	if ar.Banks != len(want) {
		t.Fatalf("served banks = %d, want %d (feature state not rebuilt)", ar.Banks, len(want))
	}
	if len(ar.AtRisk) == 0 || ar.AtRisk[0].Score != scores[0] {
		t.Fatalf("top score = %v, want %v", ar.AtRisk, scores[0])
	}

	// The restored ledger is visible in metrics immediately.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := alarmedGaugeRE.FindSubmatch(metrics)
	if m == nil {
		t.Fatal("metrics missing astrad_predict_alarmed_banks")
	}
	if n, _ := strconv.ParseFloat(string(m[1]), 64); n < float64(len(firstAlarms)) {
		t.Fatalf("alarmed gauge = %v, want >= %d restored alarms", n, len(firstAlarms))
	}

	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 2 exit = %d; stderr:\n%s", code, errs.String())
	}

	// Every phase-1 first-alarm time survives the restart unchanged.
	final, err := loadState(statePath)
	if err != nil || len(final) != 1 {
		t.Fatalf("final state: %d sites, %v", len(final), err)
	}
	finalAlarms := make(map[core.BankKey]int64, len(final[0].alarms))
	for _, a := range final[0].alarms {
		finalAlarms[a.key] = a.at
	}
	if len(finalAlarms) < len(firstAlarms) {
		t.Fatalf("ledger shrank: %d -> %d", len(firstAlarms), len(finalAlarms))
	}
	for k, at := range firstAlarms {
		got, ok := finalAlarms[k]
		if !ok {
			t.Fatalf("alarm for %v lost across restart", k)
		}
		if got != at {
			t.Fatalf("alarm for %v re-stamped: %d -> %d", k, at, got)
		}
	}
}

// appendLog appends data to the log at path, as a writer would.
func appendLog(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
