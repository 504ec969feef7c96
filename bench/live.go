package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mce"
	"repro/internal/topology"
)

// probeEvery and readEvery are the live-tail request schedules: a
// conditional GET of /v1/breakdown every 20 ms on one connection, plain
// GETs at 40/s on the other. pollEvery is live-restart's visibility
// poll, also a conditional GET; it bounds the resolution of restart and
// catch-up times.
const (
	probeEvery = 20 * time.Millisecond
	readEvery  = 25 * time.Millisecond
	pollEvery  = 20 * time.Millisecond
	// maxLateness invalidates a live-tail run whose generator fell behind.
	maxLateness = 20 * time.Millisecond
	// catchUpLimit bounds the wait for the daemon to show every released
	// record; records still missing then count as never served.
	catchUpLimit = 30 * time.Second
)

// astradArgs are the flags live workloads start astrad with; everything
// else stays at its default.
func astradArgs(logPath, stateDir string) []string {
	return []string{"-log", logPath, "-state", filepath.Join(stateDir, "astrad.state"),
		"-checkpoint-every", "10s", "-listen", "127.0.0.1:0"}
}

// breakdown is the part of /v1/breakdown the gates read.
type breakdown struct {
	Records      int                     `json:"records"`
	Faults       int                     `json:"faults"`
	FaultsByMode [core.NumFaultModes]int `json:"faultsByMode"`
}

// expected is the reference answer over released CE records: what
// core.Cluster and core.BreakdownByMode make of exactly those records.
type expected struct {
	records int
	faults  int
	byMode  [core.NumFaultModes]int
}

func reference(ctx context.Context, recs []mce.CERecord) (expected, error) {
	faults, err := core.Cluster(ctx, recs, core.DefaultClusterConfig())
	if err != nil {
		return expected{}, err
	}
	return expected{records: len(recs), faults: len(faults), byMode: core.BreakdownByMode(recs, faults).FaultsByMode}, nil
}

// checkAnswer compares a daemon's served breakdown and fault list with
// the reference, returning one message per mismatch.
func checkAnswer(want expected, bdBody, faultsBody []byte) []string {
	var bd breakdown
	var fl struct {
		Count  int `json:"count"`
		Faults []struct {
			Mode string `json:"mode"`
		} `json:"faults"`
	}
	if err := json.Unmarshal(bdBody, &bd); err != nil {
		return []string{fmt.Sprintf("/v1/breakdown: %v", err)}
	}
	if err := json.Unmarshal(faultsBody, &fl); err != nil {
		return []string{fmt.Sprintf("/v1/faults: %v", err)}
	}
	var perMode [core.NumFaultModes]int
	for _, f := range fl.Faults {
		for m := core.FaultMode(0); m < core.NumFaultModes; m++ {
			if m.String() == f.Mode {
				perMode[m]++
			}
		}
	}
	var bad []string
	if bd.Records != want.records {
		bad = append(bad, fmt.Sprintf("served %d records, reference released %d", bd.Records, want.records))
	}
	if bd.Faults != want.faults || fl.Count != want.faults {
		bad = append(bad, fmt.Sprintf("served %d faults (%d listed), reference %d", bd.Faults, fl.Count, want.faults))
	}
	if bd.FaultsByMode != want.byMode || perMode != want.byMode {
		bad = append(bad, fmt.Sprintf("faults by mode %v (listed %v), reference %v", bd.FaultsByMode, perMode, want.byMode))
	}
	return bad
}

// sleepUntil waits for t or ctx, reporting whether t was reached.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// tailInput is live-tail's rendered append stream and its reference.
type tailInput struct {
	text    []byte
	rel     *release
	warmEnd int   // bytes appended (and waited for) before timing
	ends    []int // end offset of each timed chunk
	nodes   []string
}

// setupTail builds the fleet, renders the append stream and starts
// astrad on an empty log until it listens. The timed phase gets a daemon
// of its own.
func (rn *runner) setupTail(ctx context.Context, res *Result) (*tailInput, error) {
	chunkLines := int(float64(rn.sc.TailRate) * rn.sc.TailChunk.Seconds())
	lines := rn.sc.TailWarmLines + int(float64(rn.sc.TailRate)*rn.seconds.Seconds())
	in := &tailInput{}
	rep := 0
	err := rn.setupReps(ctx, res, func(ds *dataset.Dataset) (func() error, error) {
		in.text, _ = render(make([]byte, 0, lines*170), ds, lines, 0)
		dir := filepath.Join(rn.work, fmt.Sprintf("setup-%d", rep))
		rep++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		logPath := filepath.Join(dir, "astra-syslog.log")
		if err := os.WriteFile(logPath, nil, 0o644); err != nil {
			return nil, err
		}
		d, _, _, err := startDaemon(filepath.Join(rn.bin, "astrad"), astradArgs(logPath, dir))
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := d.stop()
			return err
		}, nil
	})
	if err != nil {
		return nil, err
	}

	in.warmEnd = lineOffset(in.text, rn.sc.TailWarmLines)
	for _, e := range lineEnds(in.text[in.warmEnd:], chunkLines) {
		in.ends = append(in.ends, in.warmEnd+e)
	}
	if in.rel, err = scanReference(in.text); err != nil {
		return nil, err
	}
	seen := map[topology.NodeID]bool{}
	for _, r := range in.rel.recs[:in.rel.releasedBy(int64(in.warmEnd))] {
		if !seen[r.Node] && len(in.nodes) < 16 {
			seen[r.Node] = true
			in.nodes = append(in.nodes, r.Node.String())
		}
	}
	if len(in.nodes) == 0 {
		return nil, fmt.Errorf("warm-up of %d lines releases no record", rn.sc.TailWarmLines)
	}
	return in, nil
}

// lineOffset is the byte offset just past the first n lines of text.
func lineOffset(text []byte, n int) int {
	off := 0
	for i := 0; i < n && off < len(text); i++ {
		j := bytes.IndexByte(text[off:], '\n')
		if j < 0 {
			return len(text)
		}
		off += j + 1
	}
	return off
}

// appendChunks is the load generator's file side: chunk c of text is
// appended to the log at t0 + c*every (open loop), until the run length
// is spent. It returns each chunk's due time and lateness in seconds.
func appendChunks(ctx context.Context, logPath string, text []byte, ends []int, start int, t0 time.Time, every, length time.Duration) ([]time.Time, []float64, int, error) {
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, nil, start, err
	}
	defer f.Close()
	var due []time.Time
	var late []float64
	prev := start
	for c, end := range ends {
		at := t0.Add(time.Duration(c) * every)
		if at.Sub(t0) >= length || !sleepUntil(ctx, at) {
			break
		}
		if _, err := f.Write(text[prev:end]); err != nil {
			return due, late, prev, err
		}
		late = append(late, time.Since(at).Seconds())
		due = append(due, at)
		prev = end
	}
	return due, late, prev, nil
}

// probe is one /v1/breakdown observation: when it completed and how many
// records the served view held.
type probe struct {
	done    time.Time
	records int
}

// client is how the load generator reaches the system under test: the
// daemon over HTTP, or the in-process replay's handler. wait sleeps
// until a request is due (the replay records it as a span).
type client struct {
	probe func(etag string) response
	read  func(path string) response
	wait  func(probeLane bool, t time.Time) bool
}

// prober polls /v1/breakdown with conditional GETs every `every` until
// stop is closed. A failed exchange is counted and leaves no
// observation.
type prober struct {
	mu     sync.Mutex
	probes []probe
	sent   int
	failed int
	last   int
}

func (pr *prober) run(cl client, t0 time.Time, every time.Duration, stop <-chan struct{}) {
	etag := ""
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		if !cl.wait(true, t0.Add(time.Duration(k)*every)) {
			return
		}
		r := cl.probe(etag)
		var bd breakdown
		ok := r.ok() && (r.code == http.StatusNotModified || json.Unmarshal(r.body, &bd) == nil)
		pr.mu.Lock()
		pr.sent++
		switch {
		case !ok:
			pr.failed++
		case r.code == http.StatusOK:
			pr.last, etag = bd.Records, r.etag
			pr.probes = append(pr.probes, probe{r.done, bd.Records})
		default: // 304: the view is unchanged
			pr.probes = append(pr.probes, probe{r.done, pr.last})
		}
		pr.mu.Unlock()
	}
}

func (pr *prober) served() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.last
}

// servedAt is what the last probe completed by t saw.
func (pr *prober) servedAt(t time.Time) int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	n := 0
	for _, p := range pr.probes {
		if p.done.After(t) {
			break
		}
		n = p.records
	}
	return n
}

// waitServed polls until pr has seen want records or limit passes.
func (pr *prober) waitServed(ctx context.Context, want int, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for pr.served() < want {
		if time.Now().After(deadline) || !sleepUntil(ctx, time.Now().Add(5*time.Millisecond)) {
			return false
		}
	}
	return true
}

// freshness turns probes into ingest-to-visible samples (ms): for each
// chunk that releases new records, the completion of the first probe
// serving them all minus the chunk's due time. A chunk whose records are
// never served samples +Inf; their count is returned.
func (pr *prober) freshness(rel *release, warmEnd int, ends []int, due []time.Time) ([]float64, int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	var out []float64
	missing := 0
	prev := rel.releasedBy(int64(warmEnd))
	j := 0
	for c := range due {
		rc := rel.releasedBy(int64(ends[c]))
		if rc == prev {
			continue
		}
		for j < len(pr.probes) && pr.probes[j].records < rc {
			j++
		}
		if j == len(pr.probes) {
			out = append(out, math.Inf(1))
			missing += rc - prev
		} else {
			out = append(out, float64(pr.probes[j].done.Sub(due[c]))/1e6)
		}
		prev = rc
	}
	return out, missing
}

// readPaths is the reader's round-robin; nodes/{id} cycles over nodes
// the warm-up made visible.
var readPaths = []string{"faults", "fit", "atrisk", "nodes", "breakdown"}

// runReader sends plain GETs every readEvery (open loop) until the run
// length is spent, timing each from its due time; a failed or refused
// request samples +Inf.
func runReader(cl client, t0 time.Time, length time.Duration, nodes []string) (lat []float64, failed int) {
	for i := 0; ; i++ {
		at := t0.Add(time.Duration(i) * readEvery)
		if at.Sub(t0) >= length || !cl.wait(false, at) {
			return lat, failed
		}
		path := "/v1/" + readPaths[i%len(readPaths)]
		if path == "/v1/nodes" {
			path += "/" + nodes[(i/len(readPaths))%len(nodes)]
		}
		r := cl.read(path)
		if !r.ok() || r.code != http.StatusOK {
			failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, float64(r.done.Sub(at))/1e6)
	}
}

// tailLoad is what one live-tail load phase observed.
type tailLoad struct {
	t0, t1     time.Time
	due        []time.Time
	late       []float64
	pr         *prober
	warm, last int // records released by the warm-up and by all appends
	api        []float64
	apiFailed  int
}

// driveTail runs the live-tail load against cl: append the warm-up and
// wait until it is visible, then from `from` on append chunks on
// schedule for the run length while the prober and reader run, then wait
// until every released record is served. phase is called with true just
// before the timed phase and with false just after it.
func driveTail(ctx context.Context, cl client, in *tailInput, logPath string, sc scale, from time.Time, length time.Duration, phase func(start bool)) (*tailLoad, error) {
	ld := &tailLoad{pr: &prober{}, warm: in.rel.releasedBy(int64(in.warmEnd))}
	if _, _, _, err := appendChunks(ctx, logPath, in.text, []int{in.warmEnd}, 0, time.Now(), 0, time.Hour); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); ld.pr.run(cl, time.Now(), probeEvery, stop) }()
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}()
	if !ld.pr.waitServed(ctx, ld.warm, catchUpLimit) {
		return nil, fmt.Errorf("warm-up: %d of %d records visible after %v", ld.pr.served(), ld.warm, catchUpLimit)
	}
	if !sleepUntil(ctx, from) {
		return nil, ctx.Err()
	}
	phase(true)
	ld.t0 = time.Now()
	wg.Add(1)
	go func() { defer wg.Done(); ld.api, ld.apiFailed = runReader(cl, ld.t0, length, in.nodes) }()
	due, late, appended, err := appendChunks(ctx, logPath, in.text, in.ends, in.warmEnd, ld.t0, sc.TailChunk, length)
	ld.t1 = time.Now()
	phase(false)
	if err != nil {
		return nil, err
	}
	ld.due, ld.late = due, late
	ld.last = in.rel.releasedBy(int64(appended))
	// Records still unserved after the limit count as never served.
	ld.pr.waitServed(ctx, ld.last, catchUpLimit)
	close(stop)
	wg.Wait()
	return ld, nil
}

// account books a load phase into res: the e2e metrics of the daemon's
// side are added by the caller; this records what the load saw and
// counts every failed operation.
func (ld *tailLoad) account(res *Result, in *tailInput, prefix string) []float64 {
	fresh, missing := ld.pr.freshness(in.rel, in.warmEnd, in.ends, ld.due)
	res.Attempted += ld.pr.sent + len(ld.api) + (ld.last - ld.warm) + 1
	if ld.pr.failed > 0 {
		res.failN(ld.pr.failed, "%s%d of %d probes failed", prefix, ld.pr.failed, ld.pr.sent)
	}
	if ld.apiFailed > 0 {
		res.failN(ld.apiFailed, "%s%d of %d reads failed or were refused", prefix, ld.apiFailed, len(ld.api))
	}
	if missing > 0 {
		res.failN(missing, "%s%d released records never served", prefix, missing)
	}
	if lp99 := percentile(ld.late, 0.99); lp99 > maxLateness.Seconds() {
		res.fail("%sgenerator lateness p99 %.1f ms exceeds %v: run invalid", prefix, lp99*1e3, maxLateness)
	}
	return fresh
}

// capInf replaces +Inf samples' percentile by the catch-up limit (a
// never-served record is at least that stale; the run is already failed).
func capInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return float64(catchUpLimit.Milliseconds())
	}
	return v
}

// runLiveTail is the live-tail workload: astrad tails a log the
// generator appends to at TailRate lines/s every TailChunk (open loop)
// while a prober and a reader query it on one connection each. The
// phase starts TailLead after astrad's exec: astrad checkpoints on the
// first record scanned 10 s after its start and every 10 s after that,
// so the phase always holds the same checkpoints.
func (rn *runner) runLiveTail(ctx context.Context, res *Result) error {
	in, err := rn.setupTail(ctx, res)
	if err != nil {
		return err
	}
	dir := filepath.Join(rn.work, "tail")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	logPath := filepath.Join(dir, "astra-syslog.log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		return err
	}
	d, addr, _, err := startDaemon(filepath.Join(rn.bin, "astrad"), astradArgs(logPath, dir))
	if err != nil {
		return err
	}
	defer func() { _, _ = d.stop() }()
	base := "http://" + addr
	probeClient, readClient := newClient(), newClient()
	defer probeClient.CloseIdleConnections()
	defer readClient.CloseIdleConnections()
	cl := client{
		probe: func(etag string) response { return get(probeClient, base+"/v1/breakdown", etag) },
		read:  func(path string) response { return get(readClient, base+path, "") },
		wait:  func(_ bool, t time.Time) bool { return sleepUntil(ctx, t) },
	}
	var before map[string]float64
	if rn.trace {
		if before, err = scrape(probeClient, base); err != nil {
			return err
		}
	}
	var cpu0, cpu1 time.Duration
	var peak float64
	var cpuErr error
	ld, err := driveTail(ctx, cl, in, logPath, rn.sc, d.start.Add(rn.sc.TailLead), rn.seconds, func(start bool) {
		c, err := d.cpuNow()
		if err != nil {
			cpuErr = err
		}
		if start {
			cpu0 = c
			return
		}
		cpu1 = c
		if mb, ok := procStatus(d.cmd.Process.Pid, "VmHWM:"); ok {
			peak = mb
		} else {
			cpuErr = fmt.Errorf("astrad: no VmHWM in /proc status")
		}
	})
	if err == nil {
		err = cpuErr
	}
	if err != nil {
		return err
	}
	fresh := ld.account(res, in, "")
	phase := ld.t1.Sub(ld.t0).Seconds()
	ingested := ld.pr.servedAt(ld.t1) - ld.pr.servedAt(ld.t0)
	res.set("answer_p50_ms", capInf(percentile(fresh, 0.5)), "ms", len(fresh))
	res.set("records_per_s", float64(ingested)/phase, "1/s", ingested)
	res.set("cpu_ns_per_record", float64(cpu1-cpu0)/float64(max(ingested, 1)), "ns", ingested)
	rss := d.rssBetween(ld.t0, ld.t1)
	res.set("rss_mb", median(rss), "MB", len(rss))
	res.set("peak_rss_mb", peak, "MB", 1)
	res.set("fresh_p50_ms", capInf(percentile(fresh, 0.5)), "ms", len(fresh))
	res.set("fresh_p99_ms", capInf(percentile(fresh, 0.99)), "ms", len(fresh))
	res.set("api_p50_ms", capInf(percentile(ld.api, 0.5)), "ms", len(ld.api))
	res.set("api_p99_ms", capInf(percentile(ld.api, 0.99)), "ms", len(ld.api))
	res.set("lateness_p99_ms", percentile(ld.late, 0.99)*1e3, "ms", len(ld.late))
	res.set("sut_cpu_s", (cpu1 - cpu0).Seconds(), "s", 1)
	res.sample("fresh_ms", fresh)
	res.sample("api_ms", ld.api)
	res.sample("rss_mb", rss)

	// Gate: the final served answer equals the reference over exactly the
	// records the reference scan released.
	want, err := reference(ctx, in.rel.recs[:ld.last])
	if err != nil {
		return err
	}
	bd, fl := get(probeClient, base+"/v1/breakdown", ""), get(probeClient, base+"/v1/faults", "")
	res.Attempted += 2
	if !bd.ok() || !fl.ok() {
		res.fail("final answer: /v1/breakdown %d %v, /v1/faults %d %v", bd.code, bd.err, fl.code, fl.err)
	} else {
		for _, msg := range checkAnswer(want, bd.body, fl.body) {
			res.fail("final answer: %s", msg)
		}
	}
	if rn.trace {
		after, err := scrape(probeClient, base)
		if err != nil {
			return err
		}
		daemonLayers(res, before, after)
	}
	shut, err := d.stop()
	if err != nil {
		res.fail("astrad shutdown: %v", err)
	}
	res.set("shutdown_s", shut.Seconds(), "s", 1)
	// The daemon runs through the phase, so the box's speed is sampled
	// around it: in set-up and here, after it exits, twice as often as
	// set-up does since no operation of the phase adds a sample.
	// Freshness and the served rate follow the poll and append schedules,
	// not CPU speed, and are not scaled.
	for i := 0; i < 2*rn.sc.SetupReps; i++ {
		rn.speed.burst()
	}
	res.scale(rn.speed, "setup_s", "cpu_ns_per_record")
	if rn.trace {
		return rn.replayTail(ctx, res, in)
	}
	return nil
}

// scrape reads astrad's /metrics into a map keyed by series (name plus
// labels).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	r := get(c, base+"/metrics", "")
	if !r.ok() {
		return nil, fmt.Errorf("scrape /metrics: %d %v", r.code, r.err)
	}
	return parseMetrics(r.body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// daemonLayers books the astrad.* ledger rows from /metrics scraped
// before and after the timed phase: what the real daemon did that the
// in-process replay does not model (checkpoints) or cannot see.
func daemonLayers(res *Result, before, after map[string]float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	res.layer("astrad.checkpoints", delta("astrad_checkpoints_total"), "count", 1)
	res.layer("astrad.checkpoints_skipped", delta("astrad_checkpoints_skipped_total"), "count", 1)
	res.layer("astrad.stream_records", after["astrad_stream_records_total"], "count", 1)
	res.layer("astrad.shed", after["astrad_stream_shed_total"], "count", 1)
	for _, ep := range readPaths {
		path := "/v1/" + ep
		if ep == "nodes" {
			path += "/{id}"
		}
		label := `{path="` + path + `"}`
		if n := delta("astrad_http_request_seconds_count" + label); n > 0 {
			res.layer("astrad.http."+ep+".server_mean_ms", delta("astrad_http_request_seconds_sum"+label)/n*1e3, "ms", int(n))
		}
	}
}
