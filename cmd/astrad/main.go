// Command astrad is the online face of the pipeline: a long-running
// daemon that tails one or more syslogs, clusters correctable errors
// incrementally (identically to the batch clusterer — the stream
// engine's differential guarantee), and serves live analyses over HTTP:
//
//	GET /v1/faults               fault list (?mode=single-bit filters)
//	GET /v1/breakdown            rolling summary: counts, modes, CE rates
//	GET /v1/fit                  windowed and overall FIT/DIMM estimates
//	GET /v1/nodes/{id}           per-node status (id is the host name)
//	GET /v1/nodes/{id}/risk      per-node bank risk scores under the predictor
//	GET /v1/atrisk               fleet's top banks by predicted failure risk
//	GET /v1/sites                site inventory (multi-site daemons)
//	GET /v1/sites/{site}/...     site-scoped faults/breakdown/fit/nodes/risk
//	GET /healthz                 liveness
//	GET /metrics                 Prometheus text exposition
//
// Risk serving scores each bank's live feature state under a predictor
// (the built-in rule ladder, or a trained model via -model). Banks
// crossing -risk-threshold are stamped into a per-site first-alarm
// ledger that persists in the site's state section, so lead-time
// accounting survives restarts.
//
// With several -site flags the daemon federates independent fleets: each
// site tails its own log into its own engine, and the legacy /v1
// endpoints become the cross-site rollup. One engine per site is enough:
// every DRAM bank belongs to one node of one site, and a site's scan
// goroutine, not its engine, bounds its ingest rate.
//
// The daemon checkpoints its scanner state and record set atomically to
// -state every -checkpoint-every while the log grows, at the next record
// or, once caught up, at the tail's next wait; the records are a
// columnar (colfmt) blob that a restart decodes straight into the
// engine's record log instead of re-parsing; a killed daemon restarted
// over the same logs
// resumes exactly, losing and duplicating nothing — including records
// still buffered in the reorder window at the moment of death. State
// files have one format (astrad-state v5); any other file, an older release's
// included, is a discarded generation. Checkpoints are checksum-sealed and
// kept as a generation ladder (-state, -state.1, ... up to -state-keep):
// recovery walks the ladder newest-first, so a torn or bit-flipped file
// costs one checkpoint interval, and a ladder with nothing valid left
// cold-starts from the logs instead of refusing to run. SIGTERM/SIGINT
// drain in-flight requests, write a final checkpoint, and exit 0.
//
// Each site's pipeline is supervised: a panic or ingest fault restarts
// only that site (with jittered exponential backoff), and a site that
// exhausts -restart-budget is quarantined — its endpoints answer 503
// with the supervision detail, /healthz reports degraded with the
// per-site ladder, and every other site keeps ingesting and serving.
// Log rotation (rename-and-recreate or copytruncate) is absorbed by the
// tail without losing records or checkpoint continuity.
//
// Answers follow the log within milliseconds. The tail is woken by
// writes to the log (inotify on Linux) rather than polling it, so -poll
// is only the longest wait on an idle log (and the polling interval
// where no watch can be set up). Each site's scan loop admits CEs to its
// queue in batches, flushed whenever the tail waits for more input, and
// each engine bank re-derives its faults only from what changed since
// the last answer.
//
// Usage:
//
//	astrad -log astra-data/astra-syslog.log -state astrad.state -listen 127.0.0.1:9137
//	astrad -site east=east.log -site west=west.log -state astrad.state
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
	"unicode"

	"repro/internal/atomicio"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/syslog"
	"repro/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// siteFlags collects repeatable -site id=path flags.
type siteFlags []siteSpec

func (s *siteFlags) String() string {
	parts := make([]string, len(*s))
	for i, sp := range *s {
		parts[i] = sp.id + "=" + sp.path
	}
	return strings.Join(parts, ",")
}

func (s *siteFlags) Set(v string) error {
	id, path, ok := strings.Cut(v, "=")
	if !ok || id == "" || path == "" {
		return fmt.Errorf("-site wants id=path, got %q", v)
	}
	if strings.ContainsAny(id, " \t\n") {
		return fmt.Errorf("site id %q must not contain whitespace", id)
	}
	// The id names the site in /v1/sites URLs, log lines and /metrics
	// labels; a quote, a backslash or a control character would need
	// escaping in each.
	if strings.ContainsAny(id, `"\`) || strings.ContainsFunc(id, unicode.IsControl) {
		return fmt.Errorf("site id %q must not contain '\"', '\\' or control characters", id)
	}
	for _, prev := range *s {
		if prev.id == id {
			return fmt.Errorf("duplicate site id %q", id)
		}
	}
	*s = append(*s, siteSpec{id: id, path: path})
	return nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("astrad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg daemonConfig
	var sites siteFlags
	fs.StringVar(&cfg.logPath, "log", "", "syslog file to tail (single-site; required unless -site is used)")
	fs.Var(&sites, "site", "federated site to serve, as id=path (repeatable; excludes -log)")
	fs.StringVar(&cfg.statePath, "state", "", "checkpoint state file (empty disables persistence)")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:9137", "HTTP listen address")
	fs.IntVar(&cfg.dedupWindow, "dedup-window", 64, "suppress record lines identical to one of the last N (0 disables)")
	fs.DurationVar(&cfg.reorderWindow, "reorder-window", 5*time.Minute, "resequence records arriving up to this much late (0 disables)")
	fs.DurationVar(&cfg.poll, "poll", syslog.DefaultTailPoll, "longest wait between growth checks on an idle log; writes wake the tail at once")
	fs.DurationVar(&cfg.checkpointSec, "checkpoint-every", 30*time.Second, "minimum interval between periodic checkpoints (> 0)")
	fs.IntVar(&cfg.dimms, "dimms", topology.DIMMs, "DIMM population per site for FIT denominators")
	fs.DurationVar(&cfg.window, "window", stream.DefaultWindow, "rolling event-time window for rates and FIT")

	fs.IntVar(&cfg.queueDepth, "queue-depth", 262144, "admission queue capacity (records) between each tail and its engine")
	fs.IntVar(&cfg.queueHigh, "queue-high", 0, "high watermark: depth at which admission starts shedding (0 = capacity)")
	fs.IntVar(&cfg.queueLow, "queue-low", 0, "low watermark: depth at which shedding stops (0 = capacity/2)")
	shedPolicy := fs.String("shed-policy", overload.PolicyReject.String(), "what a saturated queue sheds: reject (newest) or drop-oldest")
	fs.IntVar(&cfg.drainBatch, "drain-batch", 1024, "max records per engine ingest batch")
	fs.DurationVar(&cfg.drainInterval, "drain-interval", 0, "pause between drain batches (throttle; chaos testing)")

	fs.IntVar(&cfg.cpFailures, "checkpoint-failures", overload.DefaultBreakerFailures, "consecutive checkpoint failures that open the circuit breaker")
	fs.DurationVar(&cfg.cpCooldown, "checkpoint-cooldown", 30*time.Second, "how long an open checkpoint breaker skips writes before probing")
	fs.DurationVar(&cfg.cpTimeout, "checkpoint-timeout", 5*time.Second, "checkpoint writes slower than this count as breaker failures (0 disables)")
	fs.IntVar(&cfg.stateKeep, "state-keep", atomicio.DefaultKeep, "checkpoint generations kept as a recovery ladder (-state, -state.1, ...; min 1)")

	fs.Float64Var(&cfg.riskThreshold, "risk-threshold", serve.DefaultRiskThreshold, "risk score at which a bank enters the first-alarm ledger and the atrisk gauge")
	fs.StringVar(&cfg.modelPath, "model", "", "trained prediction model directory (empty = built-in rule ladder)")

	fs.DurationVar(&cfg.restartBackoff, "restart-backoff", time.Second, "initial delay before restarting a failed site pipeline (doubles per consecutive failure, jittered)")
	fs.DurationVar(&cfg.restartBackoffMax, "restart-backoff-max", 30*time.Second, "ceiling on the site restart backoff")
	fs.IntVar(&cfg.restartBudget, "restart-budget", supervise.DefaultBudget, "consecutive site pipeline failures before the site is quarantined (<0 = never quarantine)")
	fs.DurationVar(&cfg.restartReset, "restart-reset", time.Minute, "a site pipeline surviving this long resets its failure streak")

	fs.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 5*time.Second, "time limit for reading request headers (slow-loris defense)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 30*time.Second, "time limit for reading an entire request")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 10*time.Second, "time limit for writing a response, from the end of its request's header (slow-reader defense)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	fs.IntVar(&cfg.maxHeaderBytes, "max-header-bytes", 1<<20, "maximum request header size")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.sites = sites
	switch {
	case len(cfg.sites) > 0 && cfg.logPath != "":
		fmt.Fprintln(stderr, "astrad: -log and -site are mutually exclusive")
		fs.Usage()
		return 2
	case len(cfg.sites) == 0 && cfg.logPath == "":
		fs.Usage()
		return 2
	}
	policy, err := overload.ParsePolicy(*shedPolicy)
	if err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}
	cfg.shedPolicy = policy
	if cfg.stateKeep < 1 {
		fmt.Fprintln(stderr, "astrad: -state-keep must be at least 1")
		fs.Usage()
		return 2
	}
	// Each capture re-encodes the whole records section, so an interval
	// of 0 (capture at every record) makes catch-up quadratic.
	if cfg.checkpointSec <= 0 {
		fmt.Fprintln(stderr, "astrad: -checkpoint-every must be positive")
		fs.Usage()
		return 2
	}
	if err := (overload.Config{Capacity: cfg.queueDepth, High: cfg.queueHigh, Low: cfg.queueLow}).Validate(); err != nil {
		fmt.Fprintf(stderr, "astrad: -queue-depth/-queue-high/-queue-low: %v\n", err)
		fs.Usage()
		return 2
	}
	if cfg.riskThreshold <= 0 || cfg.riskThreshold > 1 {
		fmt.Fprintln(stderr, "astrad: -risk-threshold must be in (0, 1]")
		fs.Usage()
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))

	code, err := serveDaemon(ctx, cfg, logger)
	if err != nil {
		logger.Error("astrad failed", "err", err)
	}
	return code
}

// matchSnapshot pairs a configured site with its restored state. Sites
// match by id; a lone snapshot restores a lone configured site whatever
// its id, so a single-site daemon keeps its state across a rename.
func matchSnapshot(snaps []siteSnapshot, specs []siteSpec, i int) siteSnapshot {
	for _, sn := range snaps {
		if sn.id == specs[i].id {
			return sn
		}
	}
	if len(specs) == 1 && len(snaps) == 1 {
		return snaps[0]
	}
	return siteSnapshot{id: specs[i].id}
}

// serveDaemon wires state restore (walking the checkpoint generation
// ladder), the supervised per-site pipelines, the checkpoint writer and
// the HTTP server, then blocks until the context is cancelled or the
// HTTP server fails. Site pipeline faults never reach this function:
// they restart or quarantine under the supervisor while the rest of the
// daemon keeps serving.
func serveDaemon(ctx context.Context, cfg daemonConfig, logger *slog.Logger) (int, error) {
	d := &daemon{
		cfg: cfg,
		log: logger,
		breaker: overload.NewBreaker(overload.BreakerConfig{
			Failures: cfg.cpFailures,
			Cooldown: cfg.cpCooldown,
		}),
		cpCh: make(chan [][]byte, 1),
		fs:   atomicio.OS,
	}
	if cfg.modelPath != "" {
		m, err := predict.LoadModel(nil, cfg.modelPath)
		if err != nil {
			return 1, fmt.Errorf("load model: %w", err)
		}
		d.predictor = m
		logger.Info("prediction model loaded", "dir", cfg.modelPath, "name", m.Name())
	} else {
		d.predictor = predict.DefaultRuleLadder()
	}
	if cfg.statePath != "" {
		// A crash can strand an atomic-write temp file next to the state;
		// sweep leftovers before writing new generations beside them.
		if err := atomicio.SweepTemps(d.fs, filepath.Dir(cfg.statePath)); err != nil {
			logger.Warn("temp sweep failed", "dir", filepath.Dir(cfg.statePath), "err", err)
		}
	}
	if err := d.restoreSites(); err != nil {
		return 1, err
	}

	srvSites := make([]serve.Site, len(d.sites))
	for i, s := range d.sites {
		srvSites[i] = serve.Site{ID: s.id, Source: s, Health: s.health}
	}
	srv := serve.New(serve.Config{
		Sites:         srvSites,
		Logger:        logger,
		ScanStats:     d.snapshotStats,
		Overload:      d.overloadStatus,
		Predictor:     d.predictor,
		RiskThreshold: cfg.riskThreshold,
	})
	reg := srv.Registry()
	reg.NewCounterFunc("astrad_checkpoints_total", "", "State checkpoints written.",
		func() float64 { return float64(d.checkpoints.Load()) })
	reg.NewCounterFunc("astrad_checkpoints_skipped_total", "", "Checkpoints skipped by the breaker or a busy writer.",
		func() float64 { return float64(d.cpSkipped.Load()) })
	reg.NewGaugeFunc("astrad_log_offset_bytes", "", "Byte offset consumed across the tailed logs.",
		func() float64 { return float64(d.offsetBytes()) })
	reg.NewCounterFunc("astrad_state_generations_discarded_total", "", "State generations rejected during recovery (checksum or parse failure).",
		func() float64 { return float64(d.gensDiscarded.Load()) })
	reg.NewCounterFunc("astrad_checkpoints_untranslatable_total", "", "Checkpoint captures skipped because the resume offset predated a log rotation.",
		func() float64 {
			var n uint64
			for _, s := range d.sites {
				n += s.cpUntranslatable.Load()
			}
			return float64(n)
		})
	reg.NewGaugeFunc("astrad_predict_alarmed_banks", "", "Banks in the first-alarm ledgers (ever scored at or above -risk-threshold).",
		func() float64 {
			var n int
			for _, s := range d.sites {
				n += s.alarms.size()
			}
			return float64(n)
		})
	reg.NewCounterFunc("astrad_log_rotations_total", "", "Log rotations (rename-and-recreate) absorbed by the tails.",
		func() float64 { return float64(d.tailTotals().Rotations) })
	reg.NewCounterFunc("astrad_log_truncations_total", "", "In-place log truncations (copytruncate) absorbed by the tails.",
		func() float64 { return float64(d.tailTotals().Truncations) })

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return 1, err
	}
	logger.Info("listening", "addr", ln.Addr().String(), "sites", len(d.sites))
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadTimeout:       cfg.readTimeout,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
		MaxHeaderBytes:    cfg.maxHeaderBytes,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	writerDone := make(chan struct{})
	go func() { defer close(writerDone); d.checkpointWriter() }()

	tailCtx, cancelTail := context.WithCancel(context.Background())
	defer cancelTail()
	sup := d.superviseSites(tailCtx)

	// Block until shutdown. Site pipeline faults do not appear here: a
	// failing site restarts or quarantines under its supervisor while
	// every other site keeps ingesting and serving — a single-site fault
	// must never terminate the process.
	var httpFail error
	select {
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
	case err := <-httpErr:
		httpFail = fmt.Errorf("http server: %w", err)
	}
	cancelTail()
	sup.Wait()
	close(d.cpCh)
	<-writerDone

	// Every unit has stopped: each running site captured its final
	// section (queue drained, resume offset translated) on the way out,
	// and quarantined sites kept their last-good sections. Persist the
	// sections synchronously — bypassing the breaker, because this
	// is the last chance to save the shed accounting and resume points —
	// unless the state file at the ladder's head already holds them.
	exitErr := httpFail
	if cfg.statePath != "" {
		if secs := d.sections(); d.atHead(secs) {
			logger.Info("final checkpoint skipped", "reason", "state unchanged")
		} else if size, err := d.persist(secs); err != nil {
			if exitErr == nil {
				exitErr = fmt.Errorf("final checkpoint: %w", err)
			} else {
				logger.Warn("final checkpoint failed", "err", err)
			}
		} else {
			d.checkpoints.Add(1)
			var shed uint64
			for _, s := range d.sites {
				shed += s.engine().Shed()
			}
			d.log.Info("checkpoint", "final", true, "bytes", size, "shed", shed)
		}
	}

	// Drain in-flight requests before exiting; the engines stay queryable
	// throughout.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}

	if exitErr != nil {
		return 1, exitErr
	}
	var records, faults, shed int
	for _, s := range d.sites {
		sum := s.engine().Summary()
		records += sum.Records
		faults += sum.Faults
		shed += sum.Shed
	}
	logger.Info("stopped", "records", records, "faults", faults,
		"shed", shed, "checkpoints", d.checkpoints.Load(),
		"restarts", sup.Restarts(), "quarantined", sup.Quarantined())
	return 0, nil
}

// restoreSites walks the checkpoint generation ladder and builds every
// configured site's first pipeline incarnation from its restored
// snapshot. A restored site publishes, as its first checkpoint section,
// the very bytes its snapshot was parsed from: marshaling the snapshot
// again would only reproduce them.
func (d *daemon) restoreSites() error {
	start := time.Now()
	snaps, gen, discarded, err := loadStateLadder(d.fs, d.cfg.statePath, d.cfg.stateKeep)
	elapsed := time.Since(start)
	for _, disc := range discarded {
		d.gensDiscarded.Add(1)
		d.log.Warn("state generation discarded", "path", disc.Path, "generation", disc.Gen, "err", disc.Err)
	}
	if err != nil {
		return err
	}
	switch {
	case gen > 0:
		d.log.Warn("recovered from older state generation", "generation", gen, "discarded", len(discarded))
	case gen < 0 && len(discarded) > 0:
		d.log.Warn("no state generation recoverable; cold-starting from the logs", "discarded", len(discarded))
	}
	specs := d.cfg.sites
	if len(specs) == 0 {
		specs = []siteSpec{{id: "default", path: d.cfg.logPath}}
	}
	for _, sn := range snaps {
		found := false
		for _, sp := range specs {
			if sp.id == sn.id {
				found = true
			}
		}
		if !found && len(specs) > 1 {
			d.log.Warn("state section for unconfigured site dropped", "site", sn.id, "records", sn.log.Len())
		}
	}

	for i, spec := range specs {
		snap := matchSnapshot(snaps, specs, i)
		site := &siteDaemon{id: spec.id, logPath: spec.path}
		eng, q := d.buildPipeline(snap)
		site.eng.Store(eng)
		site.q.Store(q)
		site.resumeCP = snap.cp
		site.primed.Store(true)
		site.alarms.replace(snap.alarms)
		sum, err := sumOf(snap)
		if err != nil {
			return err
		}
		sec := snap.section
		if sec == nil {
			if sec, err = marshalSection(snap); err != nil {
				return err
			}
		}
		site.publish(sec, sum)
		if snap.log.Len() > 0 {
			d.log.Info("restored", "site", spec.id, "records", snap.log.Len(), "bytes", len(sec), "elapsed", elapsed,
				"shed", snap.shed, "alarms", len(snap.alarms), "offset", snap.cp.Offset, "pendingReorder", snap.cp.Buffered())
		}
		d.sites = append(d.sites, site)
	}
	// Generation 0, restored over the same sites in the same order, is
	// the state file at the ladder's head.
	if gen == 0 && slices.EqualFunc(snaps, d.sites, func(sn siteSnapshot, s *siteDaemon) bool { return sn.id == s.id }) {
		d.head = d.sections()
	}
	return nil
}
