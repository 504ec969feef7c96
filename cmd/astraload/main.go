// Command astraload is the overload/chaos harness for the online
// subsystem: it drives a real serve.Server + admission queue + engine
// stack with sustained high-rate ingest, an API request herd, slow
// clients, traffic bursts and a stalling checkpoint disk, then verifies
// the overload contract and measures the experience:
//
//   - offered == ingested + shed, exactly (no record silently lost)
//   - the final fault population equals a batch clustering of exactly
//     the ingested records (overload never corrupts analyses)
//   - p50/p99 API latency on both the rendered path and the ETag/304
//     fast path, shed rate, recovery time after the load stops,
//     checkpoint-breaker behavior under disk stalls
//
// With -sites N the harness builds N federated sites (per-site seeds
// seed+i) behind one server, exercising the cross-site rollup and
// site-scoped endpoints under load. Per-site ingest/shed rows land in
// the result.
//
// The result document is BENCH_serve.json, the serving-path baseline
// `make bench-serve` writes and `make bench-guard` defends:
//
//	astraload [flags] [-out BENCH_serve.json]
//	astraload -guard [-against BENCH_serve.json] [-tolerance 0.10]
//
// -guard re-runs the baseline's own pinned scenario and fails on p99
// latency regressions beyond the tolerance (plus a small absolute slack
// to absorb scheduler jitter), on a shed rate beyond what the
// scenario's configured rates imply, or on any contract violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/atomicio"
	"repro/internal/overload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astraload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sc := Scenario{}
	fs.Uint64Var(&sc.Seed, "seed", 1, "dataset seed")
	fs.IntVar(&sc.Nodes, "nodes", 64, "dataset system size, per site")
	fs.IntVar(&sc.Sites, "sites", 1, "federated sites served from one stack (site i seeds with seed+i)")
	fs.Float64Var(&sc.DurationSec, "duration", 3, "load phase seconds")
	fs.IntVar(&sc.IngestRate, "ingest-rate", 100000, "sustained offer rate, records/s")
	fs.Float64Var(&sc.BurstFactor, "burst-factor", 3, "rate multiplier inside the burst window")
	fs.Float64Var(&sc.BurstAtSec, "burst-at", 1, "burst start, seconds into the run")
	fs.Float64Var(&sc.BurstForSec, "burst-for", 0.5, "burst length, seconds")
	fs.IntVar(&sc.APIClients, "api-clients", 4, "concurrent API reader goroutines")
	fs.IntVar(&sc.APIQPS, "api-qps", 400, "total API requests/s across clients")
	fs.IntVar(&sc.SlowClients, "slow-clients", 2, "clients that trickle partial requests")
	fs.IntVar(&sc.QueueDepth, "queue-depth", 32768, "admission queue capacity")
	fs.IntVar(&sc.QueueHigh, "queue-high", 0, "high watermark (0 = capacity)")
	fs.IntVar(&sc.QueueLow, "queue-low", 0, "low watermark (0 = capacity/2)")
	fs.StringVar(&sc.ShedPolicy, "shed-policy", overload.PolicyReject.String(), "reject or drop-oldest")
	fs.IntVar(&sc.DrainBatch, "drain-batch", 128, "records per engine ingest batch")
	fs.Float64Var(&sc.DrainIntervalMS, "drain-interval", 5, "pause between drain batches, ms (bounds drain rate)")
	fs.Float64Var(&sc.DiskStallP, "disk-stall", 0.5, "probability a checkpoint write stalls")
	fs.Float64Var(&sc.DiskStallMS, "disk-stall-for", 100, "stall length, ms")
	fs.Float64Var(&sc.CheckpointEveryMS, "checkpoint-every", 100, "checkpoint cadence, ms")
	fs.Float64Var(&sc.CheckpointTimeoutMS, "checkpoint-timeout", 50, "writes slower than this count as breaker failures, ms")
	recovery := fs.Bool("recovery", false, "run the kill+corrupt+rotate recovery scenario after the load phase")
	recNodes := fs.Int("recovery-nodes", 48, "recovery scenario dataset size, nodes")
	recKeep := fs.Int("recovery-keep", 3, "recovery scenario checkpoint ladder depth")
	recBound := fs.Float64("recovery-bound", 30000, "hard cap on recovery convergence, ms")
	out := fs.String("out", "BENCH_serve.json", "result/baseline path")
	guard := fs.Bool("guard", false, "re-run the baseline's scenario and fail on regression instead of writing")
	against := fs.String("against", "BENCH_serve.json", "baseline to guard against")
	tolerance := fs.Float64("tolerance", 0.10, "allowed fractional p99/shed-rate growth before -guard fails")
	p99Slack := fs.Float64("p99-slack", 5, "absolute p99 slack, ms, on top of the tolerance")
	shedSlack := fs.Float64("shed-slack", 0.02, "absolute shed-rate slack on top of the tolerance")
	recSlack := fs.Float64("recovery-slack", 250, "absolute recovery-time slack, ms, on top of the tolerance")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recovery {
		sc.Recovery = &RecoverySpec{
			Seed:    sc.Seed,
			Nodes:   *recNodes,
			Keep:    *recKeep,
			BoundMS: *recBound,
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	if *guard {
		return runGuard(ctx, logger, stdout, stderr, *against, *tolerance, *p99Slack, *shedSlack, *recSlack)
	}

	res, err := sc.Run(ctx, logger)
	if err != nil {
		fmt.Fprintln(stderr, "astraload:", err)
		return 1
	}
	report(stdout, res)
	if !res.InvariantOK || !res.DifferentialOK {
		fmt.Fprintln(stderr, "astraload: overload contract violated; not writing a baseline")
		return 1
	}
	if res.Recovery != nil && !res.Recovery.ConvergedOK {
		fmt.Fprintf(stderr, "astraload: recovery scenario failed (%s); not writing a baseline\n", res.Recovery.Detail)
		return 1
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "astraload:", err)
		return 1
	}
	if _, err := atomicio.WriteFile(context.WithoutCancel(ctx), atomicio.OS, *out, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		fmt.Fprintln(stderr, "astraload:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}

func report(w io.Writer, res Result) {
	fmt.Fprintf(w, "offered %d  ingested %d  shed %d (%.1f%%)  invariant=%v differential=%v\n",
		res.Offered, res.Ingested, res.Shed, 100*res.ShedRate, res.InvariantOK, res.DifferentialOK)
	fmt.Fprintf(w, "api: %d requests, %d rejected (503), %d errors, p50 %.2fms p99 %.2fms\n",
		res.API.Requests, res.API.Rejected, res.API.Errors, res.API.P50Ms, res.API.P99Ms)
	fmt.Fprintf(w, "api cached: %d not-modified (304), p50 %.2fms p99 %.2fms\n",
		res.API.NotModified, res.API.CachedP50Ms, res.API.CachedP99Ms)
	for _, site := range res.Sites {
		fmt.Fprintf(w, "site %-8s offered %d  ingested %d  shed %d (%.1f%%)  faults %d\n",
			site.ID, site.Offered, site.Ingested, site.Shed, 100*site.ShedRate, site.Faults)
	}
	fmt.Fprintf(w, "recovery %.0fms  saturations %d  slow clients cut %d  checkpoints %d written %d skipped %d breaker opens\n",
		res.RecoveryMs, res.Saturations, res.SlowKilled,
		res.Checkpoints.Written, res.Checkpoints.Skipped, res.Checkpoints.BreakerOpens)
	if rr := res.Recovery; rr != nil {
		fmt.Fprintf(w, "crash recovery: converged=%v in %.1fms  survivor gen %d (%d discarded)  restored %d + replayed %d records, %d faults  rotations %d\n",
			rr.ConvergedOK, rr.RecoveryMs, rr.SurvivorGeneration, rr.GenerationsDiscarded,
			rr.RecordsRestored, rr.RecordsReplayed, rr.Faults, rr.Rotations)
		if !rr.ConvergedOK {
			fmt.Fprintf(w, "crash recovery detail: %s\n", rr.Detail)
		}
	}
}

// runGuard re-runs the baseline's own scenario and compares the
// regression-sensitive numbers: read-path p99, shed rate and — when the
// baseline pins the recovery scenario — crash-recovery time. Contract
// violations (overload invariants or a recovery that fails to converge)
// fail outright.
func runGuard(ctx context.Context, logger *slog.Logger, stdout, stderr io.Writer, path string, tolerance, p99Slack, shedSlack, recSlack float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "astraload: guard: %v\n", err)
		return 1
	}
	var base Result
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "astraload: guard: %s: %v\n", path, err)
		return 1
	}
	res, err := base.Scenario.Run(ctx, logger)
	if err != nil {
		fmt.Fprintln(stderr, "astraload: guard:", err)
		return 1
	}
	report(stdout, res)
	if !res.InvariantOK || !res.DifferentialOK {
		fmt.Fprintln(stderr, "astraload: guard: overload contract violated")
		return 1
	}
	if res.Recovery != nil && !res.Recovery.ConvergedOK {
		fmt.Fprintf(stderr, "astraload: guard: crash recovery failed to converge: %s\n", res.Recovery.Detail)
		return 1
	}
	failed := false
	p99Limit := base.API.P99Ms*(1+tolerance) + p99Slack
	status := "ok"
	if res.API.P99Ms > p99Limit {
		status = "REGRESSION"
		failed = true
	}
	fmt.Fprintf(stdout, "p99       %8.2fms (baseline %8.2fms, limit %8.2fms) %s\n",
		res.API.P99Ms, base.API.P99Ms, p99Limit, status)
	// The shed-rate limit anchors to the scenario's own configured
	// parameters, not the baseline's absolute measurement: the configured
	// component (offered volume beyond drain capacity + queue headroom)
	// is overload arithmetic and gets no tolerance; only the measured
	// excess above it — the machine-speed part, drain cycles running
	// slower than the pure throttle — is toleranced. Editing the pinned
	// scenario moves the expectation with it instead of tripping the
	// guard on a stale absolute value.
	expected := base.Scenario.expectedShedRate()
	excess := base.ShedRate - expected
	if excess < 0 {
		excess = 0
	}
	shedLimit := expected + excess*(1+tolerance) + shedSlack
	status = "ok"
	if res.ShedRate > shedLimit {
		status = "REGRESSION"
		failed = true
	}
	fmt.Fprintf(stdout, "shed rate %8.4f   (configured %8.4f + excess %6.4f, limit %8.4f) %s\n",
		res.ShedRate, expected, excess, shedLimit, status)
	// Crash-recovery time regresses like a latency: toleranced against
	// the baseline's measurement plus absolute slack (ladder walk +
	// restore + delta replay are all machine-speed work).
	if res.Recovery != nil && base.Recovery != nil {
		recLimit := base.Recovery.RecoveryMs*(1+tolerance) + recSlack
		status = "ok"
		if res.Recovery.RecoveryMs > recLimit {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(stdout, "recovery  %8.2fms (baseline %8.2fms, limit %8.2fms) %s\n",
			res.Recovery.RecoveryMs, base.Recovery.RecoveryMs, recLimit, status)
	}
	if failed {
		fmt.Fprintln(stderr, "astraload: guard: serving-path regression beyond tolerance; investigate or regenerate the baseline with `make bench-serve`")
		return 1
	}
	return 0
}
