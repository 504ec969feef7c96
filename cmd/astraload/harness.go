package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/topology"
)

// Scenario pins one load/chaos run. Every field lands in the result so
// a baseline is self-describing and `-guard` can re-run it exactly.
type Scenario struct {
	Seed  uint64 `json:"seed"`
	Nodes int    `json:"nodes"`
	// Sites is the number of federated sites served from one stack (1 =
	// the classic single-fleet arrangement). Site i's dataset uses seed
	// Seed+i, so the fleets are distinct populations.
	Sites int `json:"sites"`
	// DurationSec is the load phase length; IngestRate is the sustained
	// offer rate in records/s across all sites, multiplied by BurstFactor
	// inside the burst window [BurstAtSec, BurstAtSec+BurstForSec).
	DurationSec float64 `json:"durationSec"`
	IngestRate  int     `json:"ingestRate"`
	BurstFactor float64 `json:"burstFactor"`
	BurstAtSec  float64 `json:"burstAtSec"`
	BurstForSec float64 `json:"burstForSec"`
	// API load: APIClients goroutines sharing APIQPS requests/s across
	// the read endpoints, plus SlowClients that trickle bytes to prove
	// the server's timeouts cut them off. Every other request is
	// conditional (If-None-Match with the last seen ETag), measuring the
	// 304 fast path alongside the rendered path.
	APIClients  int `json:"apiClients"`
	APIQPS      int `json:"apiQPS"`
	SlowClients int `json:"slowClients"`
	// Admission queue shape (per site).
	QueueDepth      int     `json:"queueDepth"`
	QueueHigh       int     `json:"queueHigh"`
	QueueLow        int     `json:"queueLow"`
	ShedPolicy      string  `json:"shedPolicy"`
	DrainBatch      int     `json:"drainBatch"`
	DrainIntervalMS float64 `json:"drainIntervalMS"`
	// Disk chaos: checkpoint writes stall with probability DiskStallP
	// for DiskStallMS; writes slower than CheckpointTimeoutMS count as
	// breaker failures.
	DiskStallP          float64 `json:"diskStallP"`
	DiskStallMS         float64 `json:"diskStallMS"`
	CheckpointEveryMS   float64 `json:"checkpointEveryMS"`
	CheckpointTimeoutMS float64 `json:"checkpointTimeoutMS"`
	// Recovery, when set, runs the kill+corrupt+rotate recovery scenario
	// after the load phase (see recovery.go) and lands its verdict in
	// Result.Recovery, so the baseline also pins crash-recovery
	// convergence.
	Recovery *RecoverySpec `json:"recovery,omitempty"`
}

// sites returns the effective site count (min 1).
func (sc Scenario) sites() int {
	if sc.Sites < 1 {
		return 1
	}
	return sc.Sites
}

// expectedShedRate derives the shed fraction the scenario's own
// parameters force, independent of any measured baseline: offered load
// beyond what the throttled drainers can absorb plus the queues'
// capacity must shed. The guard compares against this configured rate,
// so editing the scenario moves the limit with it instead of tripping
// on a stale absolute value.
func (sc Scenario) expectedShedRate() float64 {
	offered := float64(sc.IngestRate) * sc.DurationSec
	if sc.BurstFactor > 1 {
		offered += (sc.BurstFactor - 1) * float64(sc.IngestRate) * sc.BurstForSec
	}
	if offered <= 0 {
		return 0
	}
	if sc.DrainIntervalMS <= 0 {
		return 0 // unthrottled drainers: nothing should shed
	}
	drainPerSec := float64(sc.DrainBatch) / (sc.DrainIntervalMS / 1000)
	absorbed := drainPerSec*sc.DurationSec*float64(sc.sites()) + float64(sc.QueueDepth*sc.sites())
	if absorbed >= offered {
		return 0
	}
	return (offered - absorbed) / offered
}

// APIStats aggregates the read-side experience under load. The herd
// interleaves plain GETs (the rendered/cached-200 path) with
// conditional GETs replaying the last ETag; P50/P99 cover the former,
// CachedP50/CachedP99 the 304 fast path.
type APIStats struct {
	Requests    uint64  `json:"requests"`
	Rejected    uint64  `json:"rejected"` // 503s: explicit shed, not failure
	Errors      uint64  `json:"errors"`   // transport errors and 5xx
	NotModified uint64  `json:"notModified"`
	P50Ms       float64 `json:"p50Ms"`
	P99Ms       float64 `json:"p99Ms"`
	CachedP50Ms float64 `json:"cachedP50Ms"`
	CachedP99Ms float64 `json:"cachedP99Ms"`
}

// CheckpointStats aggregates the breaker-guarded checkpoint path.
type CheckpointStats struct {
	Written      uint64 `json:"written"`
	Skipped      uint64 `json:"skipped"`
	BreakerOpens uint64 `json:"breakerOpens"`
}

// SiteResult is one site's ingest/shed accounting row.
type SiteResult struct {
	ID       string  `json:"id"`
	Offered  uint64  `json:"offered"`
	Ingested uint64  `json:"ingested"`
	Shed     uint64  `json:"shed"`
	ShedRate float64 `json:"shedRate"`
	Faults   int     `json:"faults"`
}

// Result is one astraload run: the scenario echoed, the accounting, and
// the verdicts. BENCH_serve.json is exactly this document.
type Result struct {
	Scenario Scenario `json:"scenario"`

	Offered  uint64  `json:"offered"`
	Ingested uint64  `json:"ingested"`
	Shed     uint64  `json:"shed"`
	ShedRate float64 `json:"shedRate"`
	// InvariantOK: offered == ingested + shed, exactly and per site, and
	// every engine's own shed ledger agrees with its queue's.
	InvariantOK bool `json:"invariantOK"`
	// DifferentialOK: each engine's final fault population equals a batch
	// clustering of exactly the records it ingested.
	DifferentialOK bool `json:"differentialOK"`
	Faults         int  `json:"faults"`

	Saturations uint64 `json:"saturations"`
	// RecoveryMs is how long after the load stopped the backlog took to
	// drain to empty.
	RecoveryMs float64 `json:"recoveryMs"`

	API         APIStats        `json:"api"`
	SlowKilled  uint64          `json:"slowKilled"`
	Checkpoints CheckpointStats `json:"checkpoints"`
	Sites       []SiteResult    `json:"sites,omitempty"`
	// Recovery is the kill+corrupt+rotate scenario's verdict, present
	// exactly when Scenario.Recovery is set.
	Recovery *RecoveryResult `json:"recovery,omitempty"`
}

// siteStack is one site's serving stack inside the harness: dataset
// pool, engine, admission queue, and producer cursor.
type siteStack struct {
	id     string
	engine *stream.Engine
	queue  *overload.Queue[mce.CERecord]

	pool      []mce.CERecord
	span      time.Duration
	idx, wrap int
}

// next returns the site's next paced record, shifting event time forward
// on every pool wrap so it stays monotonic.
func (st *siteStack) next() mce.CERecord {
	r := st.pool[st.idx]
	if st.wrap > 0 {
		r.Time = r.Time.Add(time.Duration(st.wrap) * st.span)
	}
	st.idx++
	if st.idx == len(st.pool) {
		st.idx = 0
		st.wrap++
	}
	return r
}

// Run executes the scenario end to end against a real HTTP server on a
// loopback listener.
func (sc Scenario) Run(ctx context.Context, logger *slog.Logger) (Result, error) {
	var res Result
	res.Scenario = sc
	policy, err := overload.ParsePolicy(sc.ShedPolicy)
	if err != nil {
		return res, err
	}

	nSites := sc.sites()
	stacks := make([]*siteStack, nSites)
	for i := range stacks {
		ds, err := dataset.Build(ctx, func() dataset.Config {
			cfg := dataset.DefaultConfig(sc.Seed + uint64(i))
			cfg.Nodes = sc.Nodes
			return cfg
		}())
		if err != nil {
			return res, err
		}
		if len(ds.CERecords) == 0 {
			return res, fmt.Errorf("astraload: site %d dataset produced no CE records", i)
		}
		st := &siteStack{
			id:     fmt.Sprintf("site-%d", i),
			engine: stream.New(stream.Config{DIMMs: sc.Nodes * topology.SlotsPerNode}),
			pool:   ds.CERecords,
		}
		st.queue = overload.NewQueue[mce.CERecord](overload.Config{
			Capacity: sc.QueueDepth,
			High:     sc.QueueHigh,
			Low:      sc.QueueLow,
			Policy:   policy,
			OnShed:   func(n int) { st.engine.NoteShed(n) },
		})
		var minT, maxT time.Time
		for _, r := range st.pool {
			if minT.IsZero() || r.Time.Before(minT) {
				minT = r.Time
			}
			if r.Time.After(maxT) {
				maxT = r.Time
			}
		}
		st.span = maxT.Sub(minT) + time.Minute
		stacks[i] = st
	}

	breaker := overload.NewBreaker(overload.BreakerConfig{
		Failures: 2,
		Cooldown: 250 * time.Millisecond,
	})

	srvSites := make([]serve.Site, nSites)
	for i, st := range stacks {
		srvSites[i] = serve.Site{ID: st.id, Source: st.engine}
	}
	srv := serve.New(serve.Config{
		Sites:  srvSites,
		Logger: logger,
		Overload: func() overload.Status {
			var q overload.QueueStats
			for _, st := range stacks {
				qs := st.queue.Stats()
				q.Offered += qs.Offered
				q.Admitted += qs.Admitted
				q.Drained += qs.Drained
				q.Rejected += qs.Rejected
				q.Evicted += qs.Evicted
				q.Shed += qs.Shed
				q.Depth += qs.Depth
				q.Capacity += qs.Capacity
				q.Saturated = q.Saturated || qs.Saturated
				q.Saturations += qs.Saturations
			}
			return overload.Status{Queue: q, Breaker: breaker.Stats()}
		},
		MaxConcurrent:  32,
		RequestTimeout: 2 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 500 * time.Millisecond,
		ReadTimeout:       2 * time.Second,
		WriteTimeout:      2 * time.Second,
		IdleTimeout:       10 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	addr := ln.Addr().String()

	// Drainers: one per site, queue -> engine, pausing after Done so
	// Freeze and the checkpoint path never wait out the throttle.
	var drainWG sync.WaitGroup
	for _, st := range stacks {
		st := st
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for {
				batch, ok := st.queue.Take(sc.DrainBatch)
				if len(batch) > 0 {
					st.engine.IngestBatch(batch)
					st.queue.Done()
					if sc.DrainIntervalMS > 0 {
						time.Sleep(time.Duration(sc.DrainIntervalMS * float64(time.Millisecond)))
					}
				}
				if !ok {
					return
				}
			}
		}()
	}
	drainDone := make(chan struct{})
	go func() { drainWG.Wait(); close(drainDone) }()

	// Chaos-checkpoint loop: periodic snapshots through a stalling disk,
	// gated by the breaker so the stalls degrade cadence, never ingest.
	stateDir, err := os.MkdirTemp("", "astraload")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(stateDir)
	fsys := iofault.New(atomicio.OS, iofault.Config{
		Seed:       sc.Seed,
		StallWrite: sc.DiskStallP,
		Stall:      time.Duration(sc.DiskStallMS * float64(time.Millisecond)),
	})
	cpCtx, cpStop := context.WithCancel(ctx)
	cpDone := make(chan struct{})
	var cpWritten, cpSkipped atomic.Uint64
	go func() {
		defer close(cpDone)
		path := filepath.Join(stateDir, "astraload.state")
		timeout := time.Duration(sc.CheckpointTimeoutMS * float64(time.Millisecond))
		tick := time.NewTicker(time.Duration(sc.CheckpointEveryMS * float64(time.Millisecond)))
		defer tick.Stop()
		for {
			select {
			case <-cpCtx.Done():
				return
			case <-tick.C:
			}
			if !breaker.Allow() {
				cpSkipped.Add(1)
				continue
			}
			type siteCP struct {
				Site    string              `json:"site"`
				Records int                 `json:"records"`
				Queued  int                 `json:"queued"`
				Stats   overload.QueueStats `json:"stats"`
			}
			cps := make([]siteCP, 0, len(stacks))
			for _, st := range stacks {
				st.queue.Freeze(func(queued []mce.CERecord, qs overload.QueueStats) {
					cps = append(cps, siteCP{st.id, st.engine.Summary().Records, len(queued), qs})
				})
			}
			payload, _ := json.Marshal(cps)
			start := time.Now()
			_, werr := atomicio.WriteFile(context.Background(), fsys, path, func(w io.Writer) error {
				_, e := w.Write(payload)
				return e
			})
			if werr != nil || (timeout > 0 && time.Since(start) > timeout) {
				breaker.Failure()
			} else {
				breaker.Success()
				cpWritten.Add(1)
			}
		}
	}()

	// API herd: every odd request replays the endpoint's last ETag via
	// If-None-Match, so the run measures the 304 fast path next to the
	// rendered one.
	apiCtx, apiStop := context.WithCancel(ctx)
	var apiWG sync.WaitGroup
	var apiRejected, apiErrors, apiNotMod, slowKilled atomic.Uint64
	latencies := make([][]float64, sc.APIClients)
	cachedLat := make([][]float64, sc.APIClients)
	endpoints := []string{"/v1/breakdown", "/v1/faults", "/v1/fit", "/v1/sites", "/healthz"}
	client := &http.Client{Timeout: 5 * time.Second}
	for c := 0; c < sc.APIClients; c++ {
		c := c
		perClient := sc.APIQPS / max(sc.APIClients, 1)
		if perClient <= 0 {
			perClient = 1
		}
		apiWG.Add(1)
		go func() {
			defer apiWG.Done()
			// get performs one GET (optionally conditional) and files the
			// latency: 304s into the cached distribution, 200s into the
			// rendered one. Returns the response ETag, if any.
			get := func(path, inm string) string {
				req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
				if err != nil {
					apiErrors.Add(1)
					return ""
				}
				if inm != "" {
					req.Header.Set("If-None-Match", inm)
				}
				start := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					apiErrors.Add(1)
					return ""
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ms := float64(time.Since(start).Microseconds()) / 1000
				switch {
				case resp.StatusCode == http.StatusNotModified:
					apiNotMod.Add(1)
					cachedLat[c] = append(cachedLat[c], ms)
				case resp.StatusCode == http.StatusServiceUnavailable:
					apiRejected.Add(1)
				case resp.StatusCode >= 500:
					apiErrors.Add(1)
				default:
					latencies[c] = append(latencies[c], ms)
				}
				return resp.Header.Get("ETag")
			}
			tick := time.NewTicker(time.Second / time.Duration(perClient))
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-apiCtx.Done():
					return
				case <-tick.C:
				}
				path := endpoints[i%len(endpoints)]
				// Plain GET, then immediately replay its ETag: at the same
				// epoch the replay must 304, measuring the fast path
				// side by side with the rendered one.
				if tag := get(path, ""); tag != "" && i%2 == 1 {
					get(path, tag)
				}
			}
		}()
	}

	// Slow clients: trickle half a request and hold; the server's
	// header timeout must cut the connection, not a human.
	for s := 0; s < sc.SlowClients; s++ {
		apiWG.Add(1)
		go func() {
			defer apiWG.Done()
			for apiCtx.Err() == nil {
				conn, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					continue
				}
				fmt.Fprintf(conn, "GET /v1/faults HTTP/1.1\r\nHost: astraload\r\n")
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 1)
				if _, err := conn.Read(buf); err != nil {
					// Connection cut without a response: the timeout won.
					slowKilled.Add(1)
				}
				conn.Close()
			}
		}()
	}

	// Producer: paced offers with the burst window, round-robin across
	// sites so every federation member sees its share of the rate.
	duration := time.Duration(sc.DurationSec * float64(time.Second))
	burstAt := time.Duration(sc.BurstAtSec * float64(time.Second))
	burstEnd := burstAt + time.Duration(sc.BurstForSec*float64(time.Second))
	var sent float64
	start := time.Now()
	tick := time.NewTicker(2 * time.Millisecond)
	for ctx.Err() == nil {
		<-tick.C
		elapsed := time.Since(start)
		if elapsed > duration {
			elapsed = duration
		}
		target := float64(sc.IngestRate) * elapsed.Seconds()
		if sc.BurstFactor > 1 && elapsed > burstAt {
			be := elapsed
			if be > burstEnd {
				be = burstEnd
			}
			target += (sc.BurstFactor - 1) * float64(sc.IngestRate) * (be - burstAt).Seconds()
		}
		for sent < target {
			st := stacks[int(sent)%nSites]
			st.queue.Offer(st.next())
			sent++
		}
		if elapsed >= duration {
			break
		}
	}
	tick.Stop()
	loadEnd := time.Now()
	closeQueues := func() {
		for _, st := range stacks {
			st.queue.Close()
		}
	}
	if err := ctx.Err(); err != nil {
		apiStop()
		cpStop()
		closeQueues()
		<-drainDone
		return res, err
	}

	// Load is off: measure recovery (backlog drain to empty), then stop
	// everything in dependency order.
	closeQueues()
	<-drainDone
	res.RecoveryMs = float64(time.Since(loadEnd).Microseconds()) / 1000
	apiStop()
	cpStop()
	apiWG.Wait()
	<-cpDone

	// Books, per site and total.
	res.InvariantOK = true
	res.DifferentialOK = true
	for _, st := range stacks {
		qs := st.queue.Stats()
		sum := st.engine.Summary()
		row := SiteResult{
			ID:       st.id,
			Offered:  qs.Offered,
			Ingested: uint64(sum.Records),
			Shed:     qs.Shed,
			Faults:   sum.Faults,
		}
		if qs.Offered > 0 {
			row.ShedRate = float64(qs.Shed) / float64(qs.Offered)
		}
		res.Sites = append(res.Sites, row)
		res.Offered += row.Offered
		res.Ingested += row.Ingested
		res.Shed += row.Shed
		res.Faults += row.Faults
		res.Saturations += qs.Saturations
		if qs.Offered != row.Ingested+qs.Shed || st.engine.Shed() != qs.Shed {
			res.InvariantOK = false
		}

		// Differential: batch-cluster exactly what this engine ingested.
		batch, err := core.Cluster(ctx, st.engine.Records(), core.DefaultClusterConfig())
		if err != nil {
			return res, err
		}
		wantBreak := core.BreakdownByMode(st.engine.Records(), batch)
		if sum.Faults != len(batch) ||
			sum.FaultsByMode != wantBreak.FaultsByMode ||
			sum.ErrorsByMode != wantBreak.ErrorsByMode {
			res.DifferentialOK = false
		}
	}
	if res.Offered > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Offered)
	}

	// Latency distributions: rendered path and 304 fast path.
	var all, cached []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	for _, l := range cachedLat {
		cached = append(cached, l...)
	}
	sort.Float64s(all)
	sort.Float64s(cached)
	res.API = APIStats{
		Requests:    uint64(len(all) + len(cached)),
		Rejected:    apiRejected.Load(),
		Errors:      apiErrors.Load(),
		NotModified: apiNotMod.Load(),
		P50Ms:       percentile(all, 0.50),
		P99Ms:       percentile(all, 0.99),
		CachedP50Ms: percentile(cached, 0.50),
		CachedP99Ms: percentile(cached, 0.99),
	}
	res.SlowKilled = slowKilled.Load()
	res.Checkpoints = CheckpointStats{
		Written:      cpWritten.Load(),
		Skipped:      cpSkipped.Load(),
		BreakerOpens: breaker.Stats().Opens,
	}

	// Recovery scenario: deterministic kill+corrupt+rotate chaos against
	// a checkpointing tail pipeline, after the load phase so the two
	// measurements never contend.
	if sc.Recovery != nil {
		rr, err := sc.Recovery.run(ctx, logger)
		if err != nil {
			return res, err
		}
		res.Recovery = &rr
	}
	return res, nil
}

// percentile reads q from an ascending slice (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
