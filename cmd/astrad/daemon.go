package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/syslog"
)

// siteSpec names one tailed log: a site id for the /v1/sites URL space
// and the path of the syslog it feeds from.
type siteSpec struct {
	id   string
	path string
}

// daemonConfig is the parsed flag set.
type daemonConfig struct {
	logPath   string
	sites     []siteSpec
	statePath string
	listen    string

	dedupWindow   int
	reorderWindow time.Duration
	poll          time.Duration
	checkpointSec time.Duration

	dimms      int
	window     time.Duration
	workers    int
	partitions int

	// Admission queue between each scanner and its engine.
	queueDepth    int
	queueHigh     int
	queueLow      int
	shedPolicy    overload.Policy
	drainBatch    int
	drainInterval time.Duration

	// Checkpoint circuit breaker.
	cpFailures int
	cpCooldown time.Duration
	cpTimeout  time.Duration

	// Checkpoint generation ladder depth (state, state.1, ...).
	stateKeep int

	// Risk serving: alarm threshold for the first-alarm ledger and the
	// astrad_predict_atrisk gauge, and an optional trained-model
	// directory replacing the built-in rule ladder.
	riskThreshold float64
	modelPath     string

	// Per-site supervision.
	restartBackoff    time.Duration
	restartBackoffMax time.Duration
	restartBudget     int
	restartReset      time.Duration

	// HTTP server hardening.
	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	maxHeaderBytes    int
	maxConcurrent     int
	requestTimeout    time.Duration
}

// siteDaemon is one site's ingest pipeline: scanner -> admission queue ->
// drainer -> partitioned engine. The pipeline is supervised: a panic or
// ingest error tears the incarnation down and a restart rebuilds the
// engine and queue from the site's last checkpoint section, so eng and q
// are swapped atomically and readers always hold a coherent pair from
// one incarnation.
type siteDaemon struct {
	id      string
	logPath string

	eng atomic.Pointer[stream.Sharded]
	q   atomic.Pointer[overload.Queue[mce.CERecord]]

	// primed marks the startup-built incarnation (restored from the
	// state ladder) as not yet consumed by the site's first supervised
	// run; resumeCP is its scanner resume point in file coordinates.
	primed   atomic.Bool
	resumeCP syslog.Checkpoint

	// unit is the site's supervision handle, published once the
	// supervisor has spawned it; the HTTP health hook reads it.
	unit atomic.Pointer[supervise.Unit]

	// statsMu guards the published copies of the scanner's and tail's
	// accounting; both are touched only by the ingest goroutine.
	statsMu sync.Mutex
	stats   syslog.ScanStats
	tail    syslog.TailStats

	offset atomic.Int64
	// section holds the site's latest marshaled checkpoint section,
	// captured by the ingest goroutine at a consistent instant (scanner
	// checkpoint + Freeze from the same goroutine). The global writer
	// composes whatever sections are current into one state file. A
	// quarantined site keeps its last-good section, so its state
	// survives the other sites' checkpoints.
	section atomic.Pointer[[]byte]

	// cpUntranslatable counts checkpoint captures skipped because the
	// scanner offset predated a log rotation (no file position to
	// resume from until the scanner crosses into the new segment).
	cpUntranslatable atomic.Uint64

	// alarms is the site's first-alarm ledger. It outlives pipeline
	// incarnations (a supervised restart restores it from the site's
	// section) and rides in every v4 checkpoint.
	alarms alarmLedger
}

func (s *siteDaemon) engine() *stream.Sharded              { return s.eng.Load() }
func (s *siteDaemon) queue() *overload.Queue[mce.CERecord] { return s.q.Load() }

// siteDaemon is the serve.Source for its site, delegating to the current
// engine incarnation so a supervised restart swaps cleanly under the
// HTTP layer.
func (s *siteDaemon) LiveView() *stream.View   { return s.engine().LiveView() }
func (s *siteDaemon) Seq() uint64              { return s.engine().Seq() }
func (s *siteDaemon) Summary() stream.Summary  { return s.engine().Summary() }
func (s *siteDaemon) Shed() uint64             { return s.engine().Shed() }
func (s *siteDaemon) DIMMs() int               { return s.engine().DIMMs() }

// daemon owns the per-site pipelines and the state shared with the HTTP
// layer.
type daemon struct {
	cfg   daemonConfig
	log   *slog.Logger
	sites []*siteDaemon

	// predictor scores bank features for the risk endpoints and the
	// alarm ledgers; Score is read-only so one instance serves every
	// site concurrently.
	predictor predict.Predictor

	breaker *overload.Breaker
	// cpCh carries pre-composed state snapshots to the checkpoint
	// writer; capacity 1 so a stalled disk backs up into skipped
	// checkpoints, never into the ingest loops.
	cpCh chan []byte
	// fs is the filesystem for state writes; tests and the load harness
	// substitute a fault injector.
	fs atomicio.FS

	checkpoints   atomic.Uint64
	cpSkipped     atomic.Uint64
	gensDiscarded atomic.Uint64
}

// publishStats exposes a snapshot of the site's scanner accounting to
// the HTTP layer (the scanner itself is not concurrency-safe).
func (s *siteDaemon) publishStats(st syslog.ScanStats) {
	s.statsMu.Lock()
	s.stats = st
	s.statsMu.Unlock()
}

// publishTail exposes the follower's rotation accounting (same ownership
// rule as publishStats).
func (s *siteDaemon) publishTail(st syslog.TailStats) {
	s.statsMu.Lock()
	s.tail = st
	s.statsMu.Unlock()
}

// snapshotStats aggregates scanner accounting across sites: the legacy
// unlabelled ingest series report the all-sites totals.
func (d *daemon) snapshotStats() syslog.ScanStats {
	var sum syslog.ScanStats
	for _, s := range d.sites {
		s.statsMu.Lock()
		st := s.stats
		s.statsMu.Unlock()
		sum.Lines += st.Lines
		sum.CEs += st.CEs
		sum.DUEs += st.DUEs
		sum.HETs += st.HETs
		sum.Other += st.Other
		sum.Malformed += st.Malformed
		sum.Truncated += st.Truncated
		sum.Garbage += st.Garbage
		sum.Duplicated += st.Duplicated
		sum.Reordered += st.Reordered
		sum.DroppedOutOfOrder += st.DroppedOutOfOrder
	}
	return sum
}

// tailTotals aggregates rotation accounting across sites.
func (d *daemon) tailTotals() syslog.TailStats {
	var sum syslog.TailStats
	for _, s := range d.sites {
		s.statsMu.Lock()
		st := s.tail
		s.statsMu.Unlock()
		sum.Rotations += st.Rotations
		sum.Truncations += st.Truncations
		sum.DroppedPartials += st.DroppedPartials
		sum.DroppedBytes += st.DroppedBytes
	}
	return sum
}

func (d *daemon) scanConfig() syslog.ScanConfig {
	return syslog.ScanConfig{DedupWindow: d.cfg.dedupWindow, ReorderWindow: d.cfg.reorderWindow}
}

// overloadStatus bundles the admission layer's state for /healthz and
// /metrics: queue books summed across sites, saturation if any site is
// shedding, plus the (global) checkpoint breaker.
func (d *daemon) overloadStatus() overload.Status {
	var q overload.QueueStats
	for _, s := range d.sites {
		st := s.queue().Stats()
		q.Offered += st.Offered
		q.Admitted += st.Admitted
		q.Drained += st.Drained
		q.Rejected += st.Rejected
		q.Evicted += st.Evicted
		q.Shed += st.Shed
		q.Depth += st.Depth
		q.Capacity += st.Capacity
		q.High += st.High
		q.Low += st.Low
		q.Saturated = q.Saturated || st.Saturated
		q.Saturations += st.Saturations
	}
	return overload.Status{Queue: q, Breaker: d.breaker.Stats()}
}

// ingest is one site's scan loop: tail the log through the hardened
// scanner and offer every CE to the site's admission queue. The drainer —
// not this goroutine — feeds the engine, so a slow clustering step backs
// up into the queue (visible, bounded, shed by policy) instead of into
// the tail. The follower is rotation-tolerant: after a rotation the
// scanner's checkpoint offsets live in stream coordinates, so every
// capture is translated into current-file coordinates first — an offset
// that still points into a rotated-away segment skips the capture (and
// is counted) rather than recording an unusable resume point. It returns
// the final checkpoint, already translated, and whether the translation
// held, so the shutdown path can persist the exact resume point once the
// queue has drained.
func (d *daemon) ingest(ctx context.Context, s *siteDaemon, q *overload.Queue[mce.CERecord], f *os.File, cp syslog.Checkpoint) (syslog.Checkpoint, bool, error) {
	follower := syslog.NewFollower(ctx, f, syslog.TailConfig{Poll: d.cfg.poll, Path: s.logPath})
	sc := syslog.NewScannerConfig(follower, d.scanConfig())
	if err := sc.Restore(cp); err != nil {
		return cp, false, err
	}
	last := time.Now()
	// Tail stats only move at rotation events, so republishing them per
	// record would add a lock acquisition to the hot path for nothing.
	lastTail := follower.Stats()
	s.publishTail(lastTail)
	for sc.Scan() {
		if rec := sc.Record(); rec.Kind == syslog.KindCE {
			q.Offer(rec.CE)
		}
		s.publishStats(sc.Stats())
		if st := follower.Stats(); st != lastTail {
			lastTail = st
			s.publishTail(st)
		}
		s.offset.Store(sc.Offset())
		if d.cfg.statePath != "" && time.Since(last) >= d.cfg.checkpointSec {
			if fcp, ok := d.translate(s, follower, sc.Checkpoint()); ok {
				if err := d.snapshotSection(s, fcp); err != nil {
					d.log.Warn("checkpoint snapshot failed", "site", s.id, "err", err)
				} else {
					d.offerCheckpoint()
				}
			}
			last = time.Now()
		}
	}
	s.publishStats(sc.Stats())
	s.publishTail(follower.Stats())
	s.offset.Store(sc.Offset())

	err := sc.Err()
	if errors.Is(err, syslog.ErrTailStopped) {
		err = nil
	}
	fcp, ok := d.translate(s, follower, sc.Checkpoint())
	return fcp, ok, err
}

// translate maps a scanner checkpoint's stream offset into current-file
// coordinates for seek-on-resume. ok is false when the offset predates
// the last rotation — nothing in the current file corresponds to it.
func (d *daemon) translate(s *siteDaemon, fo *syslog.Follower, cp syslog.Checkpoint) (syslog.Checkpoint, bool) {
	off, ok := fo.FileOffset(cp.Offset)
	if !ok {
		s.cpUntranslatable.Add(1)
		d.log.Warn("checkpoint capture skipped", "site", s.id, "reason", "offset predates log rotation")
		return cp, false
	}
	cp.Offset = off
	return cp, true
}

// drain is the consumer side of one site's admission queue: batches go
// into the engine, Done releases any Freeze waiting for a consistent
// snapshot. An optional pause between batches exists for the chaos
// harness (and operators throttling a cold restore); it runs after
// Done, so checkpoints never wait out the pause. It takes the queue and
// engine of one incarnation explicitly so a supervised restart never
// crosses incarnations mid-batch.
func (d *daemon) drain(q *overload.Queue[mce.CERecord], eng *stream.Sharded) {
	for {
		batch, ok := q.Take(d.cfg.drainBatch)
		if len(batch) > 0 {
			eng.IngestBatch(batch)
			q.Done()
			if d.cfg.drainInterval > 0 {
				time.Sleep(d.cfg.drainInterval)
			}
		}
		if !ok {
			return
		}
	}
}

// snapshotSection captures one site's durable state at a consistent
// instant: Freeze waits out any in-flight drain batch, then the engine's
// records plus the still-queued records are exactly the CEs the scanner
// had emitted at cp — a restart loses nothing and duplicates nothing,
// and the shed count carried alongside keeps the degraded accounting
// honest across the restart. The alarm ledger is advanced here too —
// checkpoint cadence is the alarm granularity — so the stamped times
// are always consistent with the records they ride with. The marshaled
// section is published for the composer; the disk write happens in the
// checkpoint writer.
func (d *daemon) snapshotSection(s *siteDaemon, cp syslog.Checkpoint) error {
	var data []byte
	var err error
	eng := s.engine()
	s.queue().Freeze(func(queued []mce.CERecord, _ overload.QueueStats) {
		recs := eng.Records()
		recs = append(recs, queued...)
		s.alarms.observe(eng.Features(), d.predictor, d.cfg.riskThreshold, time.Now())
		data, err = marshalSiteSectionV4(cp, eng.Shed(), recs, s.alarms.snapshot())
	})
	if err != nil {
		return err
	}
	s.section.Store(&data)
	return nil
}

// composeState concatenates the latest per-site sections into one v4
// state file image (a single-site daemon writes a one-section v4 file;
// older v1-v3 files still load). Sections are each internally
// consistent; sites tail independent logs, so a file composed from
// sections captured moments apart is still a correct per-site resume
// point — and a quarantined site contributes its last-good section.
func (d *daemon) composeState() []byte {
	secs := make([][]byte, len(d.sites))
	size := len(stateMagicV4) + len("\nsites \n") + 20
	for i, s := range d.sites {
		secs[i] = *s.section.Load()
		size += len("site \n") + len(s.id) + len(secs[i])
	}
	b := bytes.NewBuffer(make([]byte, 0, size))
	fmt.Fprintf(b, "%s\nsites %d\n", stateMagicV4, len(d.sites))
	for i, s := range d.sites {
		fmt.Fprintf(b, "site %s\n", s.id)
		b.Write(secs[i])
	}
	return b.Bytes()
}

// offerCheckpoint composes the current sections and hands the image to
// the async writer; if the writer is still busy with the previous
// snapshot (stalled disk), the checkpoint is skipped — cadence degrades,
// ingest does not.
func (d *daemon) offerCheckpoint() {
	data := d.composeState()
	select {
	case d.cpCh <- data:
	default:
		d.cpSkipped.Add(1)
		d.log.Warn("checkpoint skipped", "reason", "writer busy")
	}
}

// offsetBytes sums the byte offsets consumed across all tailed logs.
func (d *daemon) offsetBytes() int64 {
	var n int64
	for _, s := range d.sites {
		n += s.offset.Load()
	}
	return n
}

// checkpointWriter drains cpCh through the circuit breaker: writes that
// fail — or stall past -checkpoint-timeout — count against the breaker,
// and an open breaker fast-fails checkpoints for the cooldown instead of
// queueing more I/O behind a sick disk.
func (d *daemon) checkpointWriter() {
	for data := range d.cpCh {
		if !d.breaker.Allow() {
			d.cpSkipped.Add(1)
			continue
		}
		start := time.Now()
		err := d.persist(data)
		elapsed := time.Since(start)
		switch {
		case err != nil:
			d.breaker.Failure()
			d.log.Warn("checkpoint failed", "err", err)
		case d.cfg.cpTimeout > 0 && elapsed > d.cfg.cpTimeout:
			// The write landed but the disk is stalling: trip toward open
			// so the next writes are skipped instead of piling up.
			d.breaker.Failure()
			d.checkpoints.Add(1)
			d.log.Warn("checkpoint slow", "elapsed", elapsed, "breaker", d.breaker.State().String())
		default:
			d.breaker.Success()
			d.checkpoints.Add(1)
			d.log.Info("checkpoint", "bytes", len(data), "offset", d.offsetBytes())
		}
	}
}

// persist seals one marshaled state snapshot with a checksum trailer and
// writes it atomically at the head of the generation ladder: the
// previous state file slides to .1, .1 to .2, and so on up to
// -state-keep generations. Recovery walks the ladder newest-first, so a
// torn or bit-flipped newest file costs one checkpoint interval, not the
// whole state.
func (d *daemon) persist(data []byte) error {
	g := atomicio.Generations{FS: d.fs, Path: d.cfg.statePath, Keep: d.cfg.stateKeep}
	_, err := g.Write(context.Background(), func(w io.Writer) error {
		// Stream the body and trailer separately: sealState's copy of a
		// multi-megabyte state image per checkpoint is pure GC pressure.
		if _, werr := w.Write(data); werr != nil {
			return werr
		}
		_, werr := fmt.Fprintf(w, "%s%08x\n", checksumPrefix, crc32.ChecksumIEEE(data))
		return werr
	})
	return err
}

// State file magics; v2 added the shed count, v3 wraps per-site sections
// for multi-site daemons, v4 appends the first-alarm ledger to every
// section. All older versions still load: v1/v2 as a single site with
// an empty ledger, v3 with empty ledgers.
const (
	stateMagic   = "astrad-state v2"
	stateMagicV1 = "astrad-state v1"
	stateMagicV3 = "astrad-state v3"
	stateMagicV4 = "astrad-state v4"
)

// checksumPrefix opens the optional integrity trailer: the last line of
// a sealed state file is "checksum crc32 %08x" over every byte before
// it. No record line can start with this prefix (canonical CE lines
// start with a timestamp), so the trailer is unambiguous.
const checksumPrefix = "checksum crc32 "

// sealState appends the checksum trailer to a marshaled state image.
func sealState(data []byte) []byte {
	out := make([]byte, 0, len(data)+len(checksumPrefix)+9)
	out = append(out, data...)
	return append(out, fmt.Sprintf("%s%08x\n", checksumPrefix, crc32.ChecksumIEEE(data))...)
}

// openState verifies and strips the checksum trailer. Files without one
// (written before sealing existed, or produced by marshalState directly)
// are accepted as-is — the section parsers still validate them line by
// line; a present-but-wrong trailer is corruption and errors out.
func openState(data []byte) ([]byte, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return data, nil
	}
	i := bytes.LastIndexByte(data[:len(data)-1], '\n')
	line := data[i+1 : len(data)-1]
	if !bytes.HasPrefix(line, []byte(checksumPrefix)) {
		return data, nil
	}
	want, err := strconv.ParseUint(string(line[len(checksumPrefix):]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("astrad: state file: bad checksum trailer %q", line)
	}
	body := data[:i+1]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("astrad: state file: checksum mismatch: trailer %08x, content %08x over %d bytes", uint32(want), got, len(body))
	}
	return body, nil
}

// siteSnapshot is one site's restored durable state.
type siteSnapshot struct {
	id     string
	cp     syslog.Checkpoint
	shed   uint64
	recs   []mce.CERecord
	alarms []alarmEntry
}

// marshalSiteSection renders one site's durable state section: the
// serialized scanner checkpoint (length-prefixed), the overload shed
// count, and the engine's CE records as canonical syslog lines.
// Replaying those lines into a fresh engine reproduces the fault state
// exactly (the engine's replay contract — at any partition count), the
// shed count restores the degraded accounting, and the scanner
// checkpoint resumes the tail at the matching byte.
func marshalSiteSection(cp syslog.Checkpoint, shed uint64, recs []mce.CERecord) ([]byte, error) {
	var b bytes.Buffer
	if err := writeSiteSection(&b, cp, shed, recs, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// marshalSiteSectionV4 renders a v4 site section: the v3 section plus
// the site's first-alarm ledger, so restart preserves when each bank
// first crossed the alarm threshold (not reconstructible from records).
func marshalSiteSectionV4(cp syslog.Checkpoint, shed uint64, recs []mce.CERecord, alarms []alarmEntry) ([]byte, error) {
	var b bytes.Buffer
	if err := writeSiteSection(&b, cp, shed, recs, len(alarms)*alarmLineBytes); err != nil {
		return nil, err
	}
	appendAlarms(&b, alarms)
	return b.Bytes(), nil
}

// Line-size estimates that pre-size a section buffer, so a state image
// of hundreds of thousands of records is not grown by doubling (each
// doubling copies the image so far and leaves the old array to the GC).
// An estimate that comes up short only costs a regrowth.
const (
	recordLineBytes = 160 // a canonical CE line and its newline: 150-160
	alarmLineBytes  = 48  // "alarm <host> <slot> <rank> <bank> <unix>\n"
)

// writeSiteSection writes the v3 section body to b, reserving room for
// it plus spare bytes the caller appends next.
func writeSiteSection(b *bytes.Buffer, cp syslog.Checkpoint, shed uint64, recs []mce.CERecord, spare int) error {
	cpb, err := cp.MarshalBinary()
	if err != nil {
		return err
	}
	b.Grow(len(cpb) + 64 + len(recs)*recordLineBytes + spare)
	fmt.Fprintf(b, "checkpoint %d\n", len(cpb))
	b.Write(cpb)
	fmt.Fprintf(b, "shed %d\n", shed)
	fmt.Fprintf(b, "records %d\n", len(recs))
	for _, r := range recs {
		b.Write(append(syslog.AppendCE(b.AvailableBuffer(), r), '\n'))
	}
	return nil
}

// parseSectionV4 parses one v4 section (checkpoint/shed/records/alarms)
// from the front of data.
func parseSectionV4(data []byte, site string, base int) (cp syslog.Checkpoint, shed uint64, recs []mce.CERecord, alarms []alarmEntry, rest []byte, err error) {
	cp, shed, recs, rest, err = parseSection(data, true, site, base)
	if err != nil {
		return cp, 0, nil, nil, nil, err
	}
	alarms, rest, err = parseAlarms(rest, site, base+len(data)-len(rest))
	if err != nil {
		return cp, 0, nil, nil, nil, err
	}
	return cp, shed, recs, alarms, rest, nil
}

// marshalState renders the single-site (v2) state file (unsealed; the
// persist layer adds the checksum trailer).
func marshalState(cp syslog.Checkpoint, shed uint64, recs []mce.CERecord) ([]byte, error) {
	sec, err := marshalSiteSection(cp, shed, recs)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(stateMagic)+1+len(sec))
	out = append(out, stateMagic...)
	out = append(out, '\n')
	return append(out, sec...), nil
}

// marshalStateV3 renders the multi-site state file: a site count, then
// one named section per site.
func marshalStateV3(sites []siteSnapshot) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\nsites %d\n", stateMagicV3, len(sites))
	for _, s := range sites {
		sec, err := marshalSiteSection(s.cp, s.shed, s.recs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "site %s\n", s.id)
		b.Write(sec)
	}
	return b.Bytes(), nil
}

// marshalStateV4 renders the current state file format: v3's shape with
// the alarm ledger appended to every site section.
func marshalStateV4(sites []siteSnapshot) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\nsites %d\n", stateMagicV4, len(sites))
	for _, s := range sites {
		sec, err := marshalSiteSectionV4(s.cp, s.shed, s.recs, s.alarms)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "site %s\n", s.id)
		b.Write(sec)
	}
	return b.Bytes(), nil
}

// parseSection parses one checkpoint/shed/records section from the front
// of data and returns the unconsumed remainder. hasShed is false for v1
// files, which predate the shed line. Errors name the site the section
// belongs to and the byte offset (base + consumed) where parsing
// stopped, so a damaged generation is diagnosable from the log line
// alone.
func parseSection(data []byte, hasShed bool, site string, base int) (cp syslog.Checkpoint, shed uint64, recs []mce.CERecord, rest []byte, err error) {
	rest = data
	fail := func(format string, args ...any) error {
		at := base + len(data) - len(rest)
		return fmt.Errorf("astrad: state file: site %s: %s at byte %d", site, fmt.Sprintf(format, args...), at)
	}
	var cpLen int
	n, err := fmt.Sscanf(string(firstLine(rest)), "checkpoint %d", &cpLen)
	if err != nil || n != 1 {
		return cp, 0, nil, nil, fail("bad checkpoint header")
	}
	rest = rest[len(firstLine(rest))+1:]
	if cpLen < 0 || cpLen > len(rest) {
		return cp, 0, nil, nil, fail("truncated checkpoint (%d bytes promised, %d left)", cpLen, len(rest))
	}
	if err := cp.UnmarshalBinary(rest[:cpLen]); err != nil {
		return cp, 0, nil, nil, fail("checkpoint: %v", err)
	}
	rest = rest[cpLen:]
	if hasShed {
		if n, err := fmt.Sscanf(string(firstLine(rest)), "shed %d", &shed); err != nil || n != 1 {
			return cp, 0, nil, nil, fail("bad shed header")
		}
		rest = rest[len(firstLine(rest))+1:]
	}
	var count int
	if n, err := fmt.Sscanf(string(firstLine(rest)), "records %d", &count); err != nil || n != 1 {
		return cp, 0, nil, nil, fail("bad records header")
	}
	rest = rest[len(firstLine(rest))+1:]
	var dec syslog.Decoder
	recs = make([]mce.CERecord, 0, count)
	for i := 0; i < count; i++ {
		line := firstLine(rest)
		if line == nil {
			return cp, 0, nil, nil, fail("truncated at record %d of %d", i, count)
		}
		p, perr := dec.ParseLineBytes(line)
		if perr != nil || p.Kind != syslog.KindCE {
			return cp, 0, nil, nil, fail("record %d: bad CE line %q: %v", i, line, perr)
		}
		rest = rest[len(line)+1:]
		recs = append(recs, p.CE)
	}
	return cp, shed, recs, rest, nil
}

// unmarshalState parses a single-site (v1/v2) state file back into its
// checkpoint, shed count, and records. A checksum trailer, if present,
// is verified and stripped first.
func unmarshalState(data []byte) (syslog.Checkpoint, uint64, []mce.CERecord, error) {
	data, err := openState(data)
	if err != nil {
		return syslog.Checkpoint{}, 0, nil, err
	}
	hasShed := true
	magic := stateMagic
	rest, ok := bytes.CutPrefix(data, []byte(stateMagic+"\n"))
	if !ok {
		rest, ok = bytes.CutPrefix(data, []byte(stateMagicV1+"\n"))
		hasShed = false
		magic = stateMagicV1
		if !ok {
			return syslog.Checkpoint{}, 0, nil, fmt.Errorf("astrad: state file: bad header")
		}
	}
	cp, shed, recs, rest, err := parseSection(rest, hasShed, "default", len(magic)+1)
	if err != nil {
		return syslog.Checkpoint{}, 0, nil, err
	}
	if len(rest) != 0 {
		return syslog.Checkpoint{}, 0, nil, fmt.Errorf("astrad: state file: %d trailing bytes at byte %d", len(rest), len(data)-len(rest))
	}
	return cp, shed, recs, nil
}

// unmarshalStateV3 parses a v3 multi-site state file into its per-site
// snapshots (empty alarm ledgers).
func unmarshalStateV3(data []byte) ([]siteSnapshot, error) {
	return unmarshalMulti(data, stateMagicV3, false)
}

// unmarshalStateV4 parses a v4 multi-site state file, alarm ledgers
// included.
func unmarshalStateV4(data []byte) ([]siteSnapshot, error) {
	return unmarshalMulti(data, stateMagicV4, true)
}

// unmarshalMulti parses a multi-site state file (v3 or v4 by magic) into
// its per-site snapshots. A checksum trailer, if present, is verified
// and stripped first.
func unmarshalMulti(data []byte, magic string, hasAlarms bool) ([]siteSnapshot, error) {
	data, err := openState(data)
	if err != nil {
		return nil, err
	}
	rest, ok := bytes.CutPrefix(data, []byte(magic+"\n"))
	if !ok {
		return nil, fmt.Errorf("astrad: state file: bad %s header", magic)
	}
	var count int
	if n, err := fmt.Sscanf(string(firstLine(rest)), "sites %d", &count); err != nil || n != 1 {
		return nil, fmt.Errorf("astrad: state file: bad sites header")
	}
	if count < 0 {
		return nil, fmt.Errorf("astrad: state file: negative site count")
	}
	rest = rest[len(firstLine(rest))+1:]
	snaps := make([]siteSnapshot, 0, count)
	for i := 0; i < count; i++ {
		var id string
		line := firstLine(rest)
		if n, err := fmt.Sscanf(string(line), "site %s", &id); err != nil || n != 1 {
			return nil, fmt.Errorf("astrad: state file: bad site header at section %d (byte %d)", i, len(data)-len(rest))
		}
		rest = rest[len(line)+1:]
		var cp syslog.Checkpoint
		var shed uint64
		var recs []mce.CERecord
		var alarms []alarmEntry
		var r []byte
		if hasAlarms {
			cp, shed, recs, alarms, r, err = parseSectionV4(rest, id, len(data)-len(rest))
		} else {
			cp, shed, recs, r, err = parseSection(rest, true, id, len(data)-len(rest))
		}
		if err != nil {
			return nil, err
		}
		rest = r
		for _, prev := range snaps {
			if prev.id == id {
				return nil, fmt.Errorf("astrad: state file: duplicate site %s", id)
			}
		}
		snaps = append(snaps, siteSnapshot{id: id, cp: cp, shed: shed, recs: recs, alarms: alarms})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("astrad: state file: %d trailing bytes at byte %d", len(rest), len(data)-len(rest))
	}
	return snaps, nil
}

// firstLine returns data up to (excluding) the first newline, or nil if
// data holds no complete line.
func firstLine(data []byte) []byte {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil
	}
	return data[:i]
}

// decodeState routes one state image (any generation) by magic: v4 or
// v3 multi-site, else v1/v2 loaded as one site named "default".
// Checksum verification happens inside the unmarshalers.
func decodeState(data []byte) ([]siteSnapshot, error) {
	if bytes.HasPrefix(data, []byte(stateMagicV4+"\n")) {
		return unmarshalStateV4(data)
	}
	if bytes.HasPrefix(data, []byte(stateMagicV3+"\n")) {
		return unmarshalStateV3(data)
	}
	cp, shed, recs, err := unmarshalState(data)
	if err != nil {
		return nil, err
	}
	return []siteSnapshot{{id: "default", cp: cp, shed: shed, recs: recs}}, nil
}

// loadState reads one state file into per-site snapshots; a missing file
// is a fresh start. It reads a single generation — daemon startup goes
// through loadStateLadder instead.
func loadState(path string) ([]siteSnapshot, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeState(data)
}

// loadStateLadder walks the checkpoint generation ladder newest-first
// and restores the first generation that verifies and parses. Damaged
// generations are returned for logging and accounting, never fatal: a
// ladder with no valid generation returns gen -1 and nil snapshots — a
// cold start from the logs — because refusing to run over a corrupt
// state file would turn one torn write into an outage.
func loadStateLadder(fsys atomicio.FS, path string, keep int) (snaps []siteSnapshot, gen int, discarded []atomicio.Discarded, err error) {
	if path == "" {
		return nil, -1, nil, nil
	}
	g := atomicio.Generations{FS: fsys, Path: path, Keep: keep}
	_, gen, discarded, err = g.Load(func(data []byte) error {
		s, derr := decodeState(data)
		if derr != nil {
			return derr
		}
		snaps = s
		return nil
	})
	if err != nil {
		return nil, -1, discarded, err
	}
	if gen < 0 {
		snaps = nil
	}
	return snaps, gen, discarded, nil
}
