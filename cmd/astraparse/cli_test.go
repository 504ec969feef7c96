package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/corrupt"
	"repro/internal/dataset"
)

var (
	cleanLogOnce sync.Once
	cleanLog     []byte
	cleanLogErr  error
)

// writeTestSyslog renders a small dataset's syslog once (Build dominates
// test time, especially under -race), optionally corrupts a copy, and
// returns the log path.
func writeTestSyslog(t *testing.T, cfg *corrupt.Config) string {
	t.Helper()
	cleanLogOnce.Do(func() {
		dcfg := dataset.DefaultConfig(43)
		dcfg.Nodes = 48
		ds, err := dataset.Build(context.Background(), dcfg)
		if err != nil {
			cleanLogErr = err
			return
		}
		var buf bytes.Buffer
		if err := ds.WriteSyslog(&buf, 20); err != nil {
			cleanLogErr = err
			return
		}
		cleanLog = buf.Bytes()
	})
	if cleanLogErr != nil {
		t.Fatal(cleanLogErr)
	}
	data := cleanLog
	if cfg != nil {
		var dirty bytes.Buffer
		if _, err := corrupt.New(*cfg).Process(bytes.NewReader(data), &dirty); err != nil {
			t.Fatal(err)
		}
		data = dirty.Bytes()
	}
	path := filepath.Join(t.TempDir(), "syslog.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCleanLog(t *testing.T) {
	log := writeTestSyslog(t, nil)
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-syslog", log, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, f := range []string{"ce-telemetry.csv", "due-telemetry.csv", "het-events.csv"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
	if !strings.Contains(stdout.String(), "ingest health:") {
		t.Errorf("no ingest health line in output:\n%s", stdout.String())
	}
}

func TestRunCorruptedLogDiagnostics(t *testing.T) {
	cfg := corrupt.Uniform(3, 0.02)
	log := writeTestSyslog(t, &cfg)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-syslog", log, "-out", t.TempDir(),
		"-dedup-window", "32", "-reorder-window", "5m",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// Per-category diagnostics, not just one malformed total.
	got := stdout.String()
	for _, want := range []string{"truncated", "garbage", "duplicated", "reordered"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "truncated 0,") && strings.Contains(got, "garbage 0,") {
		t.Errorf("2%% corruption reported zero truncated AND zero garbage:\n%s", got)
	}
}

func TestRunStrictFailsOnCorruption(t *testing.T) {
	cfg := corrupt.Config{Seed: 3, Truncate: 0.1}
	log := writeTestSyslog(t, &cfg)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-syslog", log, "-out", t.TempDir(), "-strict"}, &stdout, &stderr); code == 0 {
		t.Error("strict run on corrupted log exited 0")
	}
	if !strings.Contains(stderr.String(), "astraparse:") {
		t.Errorf("no error reported on stderr: %q", stderr.String())
	}
}

func TestRunStrictPassesOnCleanLog(t *testing.T) {
	log := writeTestSyslog(t, nil)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-syslog", log, "-out", t.TempDir(), "-strict"}, &stdout, &stderr); code != 0 {
		t.Errorf("strict run on clean log exited %d: %s", code, stderr.String())
	}
}

func TestRunMalformedBudget(t *testing.T) {
	cfg := corrupt.Config{Seed: 3, Truncate: 0.1}
	log := writeTestSyslog(t, &cfg)

	var stdout, stderr bytes.Buffer
	out := t.TempDir()
	code := run(context.Background(), []string{"-syslog", log, "-out", out, "-max-malformed", "0.01"}, &stdout, &stderr)
	if code == 0 {
		t.Error("10% truncation passed a 1% budget")
	}
	// Salvage is still written before the non-zero exit.
	if _, err := os.Stat(filepath.Join(out, "ce-telemetry.csv")); err != nil {
		t.Errorf("budget failure wrote no salvage: %v", err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-syslog", log, "-out", t.TempDir(), "-max-malformed", "0.5"}, &stdout, &stderr); code != 0 {
		t.Errorf("10%% truncation failed a 50%% budget: exit %d, %s", code, stderr.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != 2 {
		t.Errorf("missing -syslog: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestRunEmitColfmt proves the full ETL loop through the columnar
// format: parse text -> emit records.col -> re-ingest the binary file
// and get the same CSVs the text parse produced, at several worker
// counts.
func TestRunEmitColfmt(t *testing.T) {
	log := writeTestSyslog(t, nil)
	csvOut := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-syslog", log, "-out", csvOut}, &stdout, &stderr); code != 0 {
		t.Fatalf("csv run: exit %d, stderr: %s", code, stderr.String())
	}

	colOut := t.TempDir()
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-syslog", log, "-out", colOut, "-emit", "colfmt", "-workers", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("colfmt run: exit %d, stderr: %s", code, stderr.String())
	}
	colPath := filepath.Join(colOut, "records.col")
	if _, err := os.Stat(colPath); err != nil {
		t.Fatalf("missing records.col: %v", err)
	}
	if _, err := os.Stat(filepath.Join(colOut, "ce-telemetry.csv")); err == nil {
		t.Error("-emit colfmt also wrote CSVs")
	}

	// Replay: feed records.col back in as the input; the CSVs must be
	// byte-identical to the ones parsed from text.
	replayOut := t.TempDir()
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-syslog", colPath, "-out", replayOut}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay run: exit %d, stderr: %s", code, stderr.String())
	}
	for _, f := range []string{"ce-telemetry.csv", "due-telemetry.csv", "het-events.csv"} {
		want, err := os.ReadFile(filepath.Join(csvOut, f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(replayOut, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s from columnar replay differs from text parse", f)
		}
	}

	// -emit both writes all four.
	bothOut := t.TempDir()
	if code := run(context.Background(), []string{"-syslog", log, "-out", bothOut, "-emit", "both"}, &stdout, &stderr); code != 0 {
		t.Fatalf("both run: exit %d, stderr: %s", code, stderr.String())
	}
	for _, f := range []string{"ce-telemetry.csv", "due-telemetry.csv", "het-events.csv", "records.col"} {
		if _, err := os.Stat(filepath.Join(bothOut, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}

	// Unknown format is a usage error.
	if code := run(context.Background(), []string{"-syslog", log, "-out", t.TempDir(), "-emit", "xml"}, &stdout, &stderr); code != 2 {
		t.Errorf("-emit xml: exit %d, want 2", code)
	}
}
