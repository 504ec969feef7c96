package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

// tinyScenario is a sub-second overloaded run: throttled drain forces
// shedding, a fully stalling disk forces the checkpoint breaker open,
// slow clients probe the server timeouts.
func tinyScenario() Scenario {
	return Scenario{
		Seed: 5, Nodes: 24, Sites: 1,
		DurationSec: 0.4, IngestRate: 30000,
		BurstFactor: 2, BurstAtSec: 0.1, BurstForSec: 0.1,
		APIClients: 2, APIQPS: 100, SlowClients: 1,
		QueueDepth: 1024, QueueHigh: 512, QueueLow: 128,
		ShedPolicy: "reject", DrainBatch: 64, DrainIntervalMS: 3,
		DiskStallP: 1, DiskStallMS: 60,
		CheckpointEveryMS: 30, CheckpointTimeoutMS: 10,
	}
}

// TestHarnessOverloadContract runs the full chaos stack once and checks
// every acceptance property the harness exists to prove.
func TestHarnessOverloadContract(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	res, err := tinyScenario().Run(context.Background(), logger)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InvariantOK {
		t.Fatalf("offered %d != ingested %d + shed %d", res.Offered, res.Ingested, res.Shed)
	}
	if !res.DifferentialOK {
		t.Fatal("stream answer diverged from batch clustering under overload")
	}
	if res.Shed == 0 || res.Saturations == 0 {
		t.Fatalf("throttled drain never saturated: shed=%d saturations=%d depth=%d",
			res.Shed, res.Saturations, res.Scenario.QueueDepth)
	}
	if res.API.Requests == 0 {
		t.Fatal("API herd made no requests")
	}
	if res.API.Errors != 0 {
		t.Fatalf("API herd saw %d hard errors", res.API.Errors)
	}
	if res.API.P99Ms <= 0 || res.API.P50Ms > res.API.P99Ms {
		t.Fatalf("latency distribution nonsense: p50=%v p99=%v", res.API.P50Ms, res.API.P99Ms)
	}
	if res.SlowKilled == 0 {
		t.Fatal("server timeouts never cut a slow client")
	}
	// Every stall exceeds the checkpoint timeout, so the breaker must
	// engage: failures counted, and once open, checkpoints skipped.
	if res.Checkpoints.BreakerOpens == 0 {
		t.Fatalf("stalling disk never opened the breaker: %+v", res.Checkpoints)
	}
	if res.RecoveryMs < 0 {
		t.Fatalf("negative recovery: %v", res.RecoveryMs)
	}
}

// TestHarnessCalmRun: with ample drain capacity nothing sheds and the
// differential still holds — the harness can tell a healthy stack from
// an overloaded one.
func TestHarnessCalmRun(t *testing.T) {
	sc := tinyScenario()
	sc.IngestRate = 5000
	sc.DrainBatch = 1024
	sc.DrainIntervalMS = 0
	sc.DiskStallP = 0
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	res, err := sc.Run(context.Background(), logger)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InvariantOK || !res.DifferentialOK {
		t.Fatalf("calm run broke the contract: %+v", res)
	}
	if res.Shed != 0 {
		t.Fatalf("calm run shed %d records", res.Shed)
	}
	if res.Checkpoints.Written == 0 {
		t.Fatal("healthy disk wrote no checkpoints")
	}
}

// TestHarnessMultiSiteFederation runs the federated topology: two sites
// with distinct seeds, per-site accounting rows, and the conditional-GET
// fast path measured.
func TestHarnessMultiSiteFederation(t *testing.T) {
	sc := tinyScenario()
	sc.Sites = 2
	sc.IngestRate = 5000
	sc.DrainBatch = 1024
	sc.DrainIntervalMS = 0
	sc.DiskStallP = 0
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	res, err := sc.Run(context.Background(), logger)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InvariantOK || !res.DifferentialOK {
		t.Fatalf("federated run broke the contract: %+v", res)
	}
	if len(res.Sites) != 2 {
		t.Fatalf("got %d site rows, want 2", len(res.Sites))
	}
	var offered, ingested, shed uint64
	for _, site := range res.Sites {
		if site.Offered == 0 || site.Ingested == 0 {
			t.Fatalf("site %s saw no traffic: %+v", site.ID, site)
		}
		offered += site.Offered
		ingested += site.Ingested
		shed += site.Shed
	}
	if offered != res.Offered || ingested != res.Ingested || shed != res.Shed {
		t.Fatalf("site rows don't sum to totals: %+v vs offered=%d ingested=%d shed=%d",
			res.Sites, res.Offered, res.Ingested, res.Shed)
	}
	if res.API.NotModified == 0 {
		t.Fatal("conditional GETs never hit the 304 fast path")
	}
	if res.API.CachedP99Ms <= 0 {
		t.Fatalf("cached p99 not measured: %+v", res.API)
	}
	if res.API.Errors != 0 {
		t.Fatalf("API herd saw %d hard errors", res.API.Errors)
	}
}

// TestExpectedShedRate pins the configured-rate derivation the guard
// compares against: an unthrottled drain expects zero shed; a throttled
// one expects the oversupply fraction; capacity absorbs its share.
func TestExpectedShedRate(t *testing.T) {
	sc := tinyScenario()
	sc.DrainIntervalMS = 0
	if got := sc.expectedShedRate(); got != 0 {
		t.Fatalf("unthrottled expectedShedRate = %v, want 0", got)
	}
	sc = tinyScenario()
	got := sc.expectedShedRate()
	// offered = 30000*0.4 + 1*30000*0.1 = 15000; drain = 64/0.003*0.4 ≈
	// 8533; absorbed ≈ 8533+1024 = 9557 → expect ≈ 0.36 shed.
	if got <= 0.2 || got >= 0.6 {
		t.Fatalf("throttled expectedShedRate = %v, want ~0.36", got)
	}
	// Doubling the sites doubles drain+queue capacity: expectation drops.
	sc.Sites = 2
	if got2 := sc.expectedShedRate(); got2 >= got {
		t.Fatalf("two-site expectedShedRate %v not below single-site %v", got2, got)
	}
}

// TestCLIWriteAndGuard drives the binary's entry point: write a
// baseline, then guard against it — the same machine moments later must
// pass its own baseline.
func TestCLIWriteAndGuard(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_serve.json")
	sc := tinyScenario()
	args := []string{
		"-seed", "5", "-nodes", "24", "-duration", "0.4", "-ingest-rate", "30000",
		"-burst-factor", "2", "-burst-at", "0.1", "-burst-for", "0.1",
		"-api-clients", "2", "-api-qps", "100", "-slow-clients", "1",
		"-queue-depth", "1024", "-queue-high", "512", "-queue-low", "128",
		"-drain-batch", "64", "-drain-interval", "3",
		"-disk-stall", "1", "-disk-stall-for", "60",
		"-checkpoint-every", "30", "-checkpoint-timeout", "10",
		"-out", out,
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("write run exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var base Result
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("baseline not valid JSON: %v", err)
	}
	if base.Scenario != sc {
		t.Fatalf("baseline scenario echo = %+v, want %+v", base.Scenario, sc)
	}

	stdout.Reset()
	stderr.Reset()
	// Generous tolerances: the guard test proves plumbing, not the
	// machine's run-to-run timing stability.
	if code := run([]string{"-guard", "-against", out, "-tolerance", "5", "-p99-slack", "100", "-shed-slack", "0.5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("guard exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	// A corrupt baseline must fail loudly, not pass silently.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-guard", "-against", bad}, &stdout, &stderr); code == 0 {
		t.Fatal("guard accepted a corrupt baseline")
	}
}
