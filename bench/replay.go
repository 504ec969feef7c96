package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// pipeline is astrad's per-site path rebuilt in process from the calls
// cmd/astrad makes, with astrad's defaults: syslog.Follower ->
// syslog.Scanner -> overload.Queue (65536, reject) -> a drainer doing
// Take(1024) -> stream.Sharded.IngestBatch, and serve.New over a Source
// whose LiveView is timed. Every call into a layer is a span.
// Checkpointing lives in astrad's main package and is not modelled.
type pipeline struct {
	rec   *recorder
	trace int
	eng   *stream.Sharded
	q     *overload.Queue[mce.CERecord]
	h     http.Handler

	// Written by the tail lane; marks is read by the drain lane.
	stats   syslog.ScanStats
	offered int
	mu      sync.Mutex
	marks   []mark

	// Written by the drain lane.
	batches, ingested, depthMax int
	waits                       []float64

	// Written by the HTTP lanes.
	httpMu   sync.Mutex
	bytesOut int
	lags     []float64
}

// mark is the start of one scan batch: records offered before it, and
// when it began. A record's queue wait is bounded above by the time from
// its scan batch's start to the Take that drained it.
type mark struct {
	offered int
	at      time.Time
}

func newPipeline(rec *recorder, trace int) *pipeline {
	eng := stream.NewSharded(stream.ShardedConfig{
		Partitions: 1,
		Engine:     stream.Config{Window: stream.DefaultWindow, DIMMs: topology.DIMMs},
	})
	p := &pipeline{rec: rec, trace: trace, eng: eng}
	p.q = overload.NewQueue[mce.CERecord](overload.Config{
		Capacity: 65536,
		Policy:   overload.PolicyReject,
		OnShed:   func(n int) { eng.NoteShed(n) },
	})
	p.h = serve.New(serve.Config{
		Source: &timedSource{Sharded: eng, rec: rec},
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	return p
}

// timedSource is the serve.Source astrad hands the server, with
// LiveView (the view build or fetch) recorded as a span on the calling
// request's lane.
type timedSource struct {
	*stream.Sharded
	rec *recorder
}

func (s *timedSource) LiveView() *stream.View {
	l := s.rec.laneOf()
	if l == nil {
		return s.Sharded.LiveView()
	}
	var v *stream.View
	s.rec.do(l, "stream.live_view", func() { v = s.Sharded.LiveView() })
	return v
}

// timedReader sits between the Follower and the Scanner so time blocked
// in the follower (reads and growth polls) is split from parse work: it
// closes the running scan-batch span around every follower read.
type timedReader struct {
	p       *pipeline
	l       *lane
	r       io.Reader
	scan    int
	offerNs int64
}

func (t *timedReader) openScan() {
	t.scan = t.p.rec.open(t.l, "syslog.scan")
	t.p.mu.Lock()
	t.p.marks = append(t.p.marks, mark{t.p.offered, time.Now()})
	t.p.mu.Unlock()
}

func (t *timedReader) closeScan() {
	var agg map[string]int64
	if t.offerNs > 0 {
		agg = map[string]int64{"overload.offer": t.offerNs}
	}
	t.p.rec.close(t.l, t.scan, agg)
	t.offerNs = 0
}

func (t *timedReader) Read(b []byte) (int, error) {
	t.closeScan()
	id := t.p.rec.open(t.l, "syslog.follower_wait")
	n, err := t.r.Read(b)
	t.p.rec.close(t.l, id, nil)
	t.openScan()
	return n, err
}

// tail is the scan lane: follow path from its start and offer every CE
// to the admission queue until ctx ends, then close the queue.
func (p *pipeline) tail(ctx context.Context, path string) error {
	defer p.q.Close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	l := p.rec.startLane("tail", p.trace)
	defer p.rec.endLane(l)
	tr := &timedReader{p: p, l: l, r: syslog.NewFollower(ctx, f, syslog.TailConfig{Poll: syslog.DefaultTailPoll, Path: path})}
	sc := syslog.NewScannerConfig(tr, scanConfig)
	tr.openScan()
	for sc.Scan() {
		if r := sc.Record(); r.Kind == syslog.KindCE {
			start := p.rec.now()
			p.q.Offer(r.CE)
			tr.offerNs += p.rec.now() - start
			p.offered++
		}
	}
	tr.closeScan()
	p.stats = sc.Stats()
	if err := sc.Err(); err != nil && !errors.Is(err, syslog.ErrTailStopped) {
		return err
	}
	return nil
}

// drain is the drain lane: Take(1024) batches into the engine until the
// queue is closed and empty.
func (p *pipeline) drain() {
	l := p.rec.startLane("drain", p.trace)
	defer p.rec.endLane(l)
	for {
		var batch []mce.CERecord
		var ok bool
		p.rec.do(l, "overload.take", func() { batch, ok = p.q.Take(1024) })
		if n := len(batch); n > 0 {
			p.noteWait(time.Now())
			p.depthMax = max(p.depthMax, n+p.q.Depth())
			p.rec.do(l, "stream.ingest", func() { p.eng.IngestBatch(batch) })
			p.q.Done()
			p.ingested += n
			p.batches++
		}
		if !ok {
			return
		}
	}
}

// noteWait records the queue wait of the oldest record in the batch just
// taken (record index p.ingested), bounded by its scan batch's start.
func (p *pipeline) noteWait(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.marks), func(k int) bool { return p.marks[k].offered > p.ingested }) - 1
	if i >= 0 {
		p.waits = append(p.waits, float64(now.Sub(p.marks[i].at))/1e6)
	}
}

// client serves the load generator's requests straight into the
// handler. Each of the prober and the reader becomes a lane on first
// use (each runs on its own goroutine); waiting for the next due time is
// a bench.wait span. end closes both lanes once their goroutines exit.
func (p *pipeline) client(ctx context.Context) (cl client, end func()) {
	var lanes [2]*lane
	laneFor := func(probe bool) *lane {
		i, name := 0, "read"
		if probe {
			i, name = 1, "probe"
		}
		if lanes[i] == nil {
			lanes[i] = p.rec.startLane(name, p.trace)
		}
		return lanes[i]
	}
	do := func(l *lane, path, etag string) response {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		w := httptest.NewRecorder()
		p.rec.do(l, "serve."+endpoint(path), func() { p.h.ServeHTTP(w, req) })
		done := time.Now()
		p.httpMu.Lock()
		p.bytesOut += w.Body.Len()
		if lag, err := strconv.ParseFloat(w.Header().Get("X-Astra-Staleness-Records"), 64); err == nil {
			p.lags = append(p.lags, lag)
		} else {
			p.lags = append(p.lags, 0)
		}
		p.httpMu.Unlock()
		return response{code: w.Code, etag: w.Header().Get("Etag"), body: w.Body.Bytes(), done: done}
	}
	cl = client{
		probe: func(etag string) response { return do(laneFor(true), "/v1/breakdown", etag) },
		read:  func(path string) response { return do(laneFor(false), path, "") },
		wait: func(probe bool, t time.Time) bool {
			var ok bool
			p.rec.do(laneFor(probe), "bench.wait", func() { ok = sleepUntil(ctx, t) })
			return ok
		},
	}
	end = func() {
		for _, l := range lanes {
			if l != nil {
				p.rec.endLane(l)
			}
		}
	}
	return cl, end
}

// endpoint names a /v1 path by its route: /v1/nodes/x is "nodes".
func endpoint(path string) string {
	rest := strings.TrimPrefix(path, "/v1/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// start runs the tail and drain lanes over path; stop ends the tail,
// waits for both lanes and returns the tail's error.
func (p *pipeline) start(ctx context.Context, path string) (stop func() error) {
	tailCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var tailErr error
	wg.Add(2)
	go func() { defer wg.Done(); tailErr = p.tail(tailCtx, path) }()
	go func() { defer wg.Done(); p.drain() }()
	return func() error {
		cancel()
		wg.Wait()
		return tailErr
	}
}

// check compares the replay engine's final state with the reference.
func (p *pipeline) check(res *Result, want expected, prefix string) {
	sum := p.eng.Summary()
	if sum.Records != want.records || sum.Faults != want.faults || sum.FaultsByMode != want.byMode {
		res.fail("%sengine holds %d records, %d faults %v; reference %d, %d %v", prefix,
			sum.Records, sum.Faults, sum.FaultsByMode, want.records, want.faults, want.byMode)
	}
}

// row is one ledger value with its unit.
type row struct {
	v    float64
	unit string
}

// ledgerRows turns one replay's ledger into the live per-layer rows.
func (rn *runner) ledgerRows(lg *ledger, p *pipeline, clocks int64) map[string]row {
	s := func(name string) float64 { return lg.self[name].Seconds() }
	rows := map[string]row{}
	put := func(name string, v float64, unit string) { rows[name] = row{v, unit} }
	scan := s("syslog.scan")
	put("syslog.scan_busy_s", scan, "s")
	put("syslog.ns_per_line", scan*1e9/float64(max(p.stats.Lines, 1)), "ns")
	put("syslog.follower_wait_s", s("syslog.follower_wait"), "s")
	put("syslog.lines", float64(p.stats.Lines), "count")
	put("syslog.records", float64(p.stats.CEs), "count")
	put("syslog.duplicated", float64(p.stats.Duplicated), "count")
	put("syslog.reordered", float64(p.stats.Reordered), "count")
	put("overload.offer_s", s("overload.offer"), "s")
	put("overload.take_s", s("overload.take"), "s")
	if len(p.waits) > 0 {
		put("overload.wait_p50_ms", percentile(p.waits, 0.5), "ms")
		put("overload.wait_p99_ms", percentile(p.waits, 0.99), "ms")
	}
	put("overload.depth_max", float64(p.depthMax), "count")
	put("overload.shed", float64(p.q.Stats().Shed), "count")
	ingest := s("stream.ingest")
	put("stream.ingest_s", ingest, "s")
	put("stream.ingest_ns_per_record", ingest*1e9/float64(max(p.ingested, 1)), "ns")
	put("stream.batches", float64(p.batches), "count")
	put("stream.batch_records_mean", float64(p.ingested)/float64(max(p.batches, 1)), "count")
	put("stream.live_view_s", s("stream.live_view"), "s")
	put("stream.live_view_calls", float64(lg.calls["stream.live_view"]), "count")
	if len(p.lags) > 0 {
		put("stream.view_lag_records_p99", percentile(p.lags, 0.99), "count")
	}
	var render float64
	for _, ep := range readPaths {
		name := "serve." + ep
		if lg.calls[name] == 0 {
			continue
		}
		render += s(name)
		put(name+".p50_ms", lg.pct(name, 0.5), "ms")
		put(name+".p99_ms", lg.pct(name, 0.99), "ms")
	}
	w := httptest.NewRecorder()
	p.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := parseMetrics(w.Body.Bytes())
	hits, misses, notMod := m["astrad_cache_hits_total"], m["astrad_cache_misses_total"], m["astrad_cache_not_modified_total"]
	if hits+misses > 0 {
		put("serve.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	if hits+misses+notMod > 0 {
		put("serve.not_modified_ratio", notMod/(hits+misses+notMod), "ratio")
	}
	put("serve.bytes_out", float64(p.bytesOut), "count")
	put("bench.wait_s", s("bench.wait"), "s")
	for _, la := range lg.lanes {
		put("lane."+la.name+".wall_s", la.wall.Seconds(), "s")
		put("lane."+la.name+".unattributed_s", la.unattributed.Seconds(), "s")
	}
	rn.logLanes(lg)

	put("dataset.build_s", rn.buildS, "s")
	put("stage.parse_s", scan, "s")
	put("stage.parse_ns_per_record", scan*1e9/float64(max(p.stats.CEs, 1)), "ns")
	put("stage.cluster_s", ingest, "s")
	put("stage.cluster_ns_per_record", ingest*1e9/float64(max(p.ingested, 1)), "ns")
	put("stage.analyze_s", s("stream.live_view"), "s")
	put("stage.render_s", render, "s")
	put("stage.unattributed_s", lg.unattributed().Seconds(), "s")
	put("stage.records", float64(p.ingested), "count")
	put("stage.faults", float64(p.eng.Summary().Faults), "count")
	put("trace.overhead_s", float64(clocks)*clockCost().Seconds(), "s")
	return rows
}

// bookRows records per-layer rows, each the median over the replays.
func bookRows(res *Result, runs []map[string]row) {
	names := map[string]string{}
	for _, rows := range runs {
		for name, r := range rows {
			names[name] = r.unit
		}
	}
	for name, unit := range names {
		var vs []float64
		for _, rows := range runs {
			if r, ok := rows[name]; ok {
				vs = append(vs, r.v)
			}
		}
		res.layer(name, median(vs), unit, len(vs))
	}
}

// replayTail is the traced half of a live-tail run: the same load, in
// process, against the rebuilt pipeline.
func (rn *runner) replayTail(ctx context.Context, res *Result, in *tailInput) error {
	logPath := filepath.Join(rn.work, "replay", "astra-syslog.log")
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		return err
	}
	id := rn.nextTrace()
	before := rn.rec.calls.Load()
	p := newPipeline(rn.rec, id)
	started := time.Now()
	stop := p.start(ctx, logPath)
	cl, endLanes := p.client(ctx)
	ld, err := driveTail(ctx, cl, in, logPath, rn.sc, started.Add(rn.sc.TailLead), rn.seconds, func(bool) {})
	tailErr := stop()
	endLanes()
	if err != nil {
		return err
	}
	if tailErr != nil {
		return tailErr
	}
	fresh := ld.account(res, in, "replay: ")
	want, err := reference(ctx, in.rel.recs[:ld.last])
	if err != nil {
		return err
	}
	p.check(res, want, "replay: ")
	lg, err := rn.rec.account(id)
	if err != nil {
		return err
	}
	rows := rn.ledgerRows(lg, p, rn.rec.calls.Load()-before)
	rows["replay.fresh_p50_ms"] = row{capInf(percentile(fresh, 0.5)), "ms"}
	bookRows(res, []map[string]row{rows})
	return nil
}

// replayRestart is the traced half of a live-restart run: cold
// catch-ups of the rebuilt pipeline over the complete log, polled like
// the daemon, until the run length is spent. Warm restarts restore
// astrad's state file, which lives in its main package and is not
// modelled.
func (rn *runner) replayRestart(ctx context.Context, res *Result, text []byte, rel *release, want expected) error {
	logPath := filepath.Join(rn.work, "replay-restart.log")
	if err := os.WriteFile(logPath, text, 0o644); err != nil {
		return err
	}
	var runs []map[string]row
	deadline := time.Now().Add(rn.seconds)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		id := rn.nextTrace()
		before := rn.rec.calls.Load()
		p := newPipeline(rn.rec, id)
		start := time.Now()
		stopPipe := p.start(ctx, logPath)
		cl, endLanes := p.client(ctx)
		pr := &prober{}
		stopProbe := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); pr.run(cl, start, pollEvery, stopProbe) }()
		ok := pr.waitServed(ctx, len(rel.recs), 4*catchUpLimit)
		visible := time.Since(start)
		close(stopProbe)
		wg.Wait()
		tailErr := stopPipe()
		endLanes()
		if tailErr != nil {
			return tailErr
		}
		res.Attempted += pr.sent + 1
		if pr.failed > 0 {
			res.failN(pr.failed, "replay: %d of %d polls failed", pr.failed, pr.sent)
		}
		if !ok {
			res.fail("replay: %d of %d records visible after %v", pr.served(), len(rel.recs), visible)
		}
		p.check(res, want, "replay: ")
		lg, err := rn.rec.account(id)
		if err != nil {
			return err
		}
		rows := rn.ledgerRows(lg, p, rn.rec.calls.Load()-before)
		rows["replay.catchup_records_per_s"] = row{float64(len(rel.recs)) / visible.Seconds(), "1/s"}
		runs = append(runs, rows)
	}
	bookRows(res, runs)
	return nil
}
