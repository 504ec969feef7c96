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
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
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

	dimms  int
	window time.Duration

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
}

// siteDaemon is one site's ingest pipeline: scanner -> admission queue ->
// drainer -> engine. The pipeline is supervised: a panic or
// ingest error tears the incarnation down and a restart rebuilds the
// engine and queue from the site's last checkpoint section, so eng and q
// are swapped atomically and readers always hold a coherent pair from
// one incarnation.
type siteDaemon struct {
	id      string
	logPath string

	eng atomic.Pointer[stream.Engine]
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
	// checkpoint + Freeze from the same goroutine). The checkpoint writer
	// writes whatever sections are current into one state file. A
	// quarantined site keeps its last-good section, so its state
	// survives the other sites' checkpoints.
	section atomic.Pointer[[]byte]
	// held is what the published section was marshaled from (see
	// sectionSum). It is touched only at startup and by the site's
	// pipeline incarnations, which run one at a time.
	held sectionSum

	// cpUntranslatable counts checkpoint captures skipped because the
	// scanner offset predated a log rotation (no file position to
	// resume from until the scanner crosses into the new segment).
	cpUntranslatable atomic.Uint64

	// alarms is the site's first-alarm ledger. It outlives pipeline
	// incarnations (a supervised restart restores it from the site's
	// section) and rides in every checkpoint.
	alarms alarmLedger
}

func (s *siteDaemon) engine() *stream.Engine               { return s.eng.Load() }
func (s *siteDaemon) queue() *overload.Queue[mce.CERecord] { return s.q.Load() }

// siteDaemon is the serve.Source for its site, delegating to the current
// engine incarnation so a supervised restart swaps cleanly under the
// HTTP layer.
func (s *siteDaemon) LiveView() *stream.View { return s.engine().LiveView() }
func (s *siteDaemon) Seq() uint64            { return s.engine().Seq() }
func (s *siteDaemon) DIMMs() int             { return s.engine().DIMMs() }

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
	// cpCh carries the sections of one state snapshot, in site order,
	// to the checkpoint writer; capacity 1 so a stalled disk backs up
	// into skipped checkpoints, never into the ingest loops.
	cpCh chan [][]byte
	// fs is the filesystem for state writes; tests substitute a fault
	// injector.
	fs atomicio.FS

	checkpoints   atomic.Uint64
	cpSkipped     atomic.Uint64
	gensDiscarded atomic.Uint64

	// head holds the sections of the state file at the head of the
	// generation ladder when this process wrote that file or restored it
	// from generation 0, and is nil when it did neither (or a write
	// failed). Shutdown does not write the same sections again, which
	// would slide the ladder to hold two copies of one state. Set at
	// startup and by the checkpoint writer, read once the writer exits.
	head [][]byte
}

// sectionSum is what a site section was marshaled from, short of the
// records and ledger entries themselves: the scanner checkpoint (in file
// coordinates, marshaled), the record and shed counts and the ledger's
// size. Within one published section's lifetime the record log and the
// ledger only grow (a rebuild restores both from that section), so a
// capture summed the same would marshal the same bytes. The zero sum
// matches no capture.
type sectionSum struct {
	cp      string
	records int
	shed    uint64
	alarms  int
}

func sumOf(snap siteSnapshot) (sectionSum, error) {
	cpb, err := snap.cp.MarshalBinary()
	return sectionSum{cp: string(cpb), records: snap.log.Len(), shed: snap.shed, alarms: len(snap.alarms)}, err
}

// publish makes data, marshaled from a state summed as sum, the site's
// latest checkpoint section.
func (s *siteDaemon) publish(data []byte, sum sectionSum) {
	s.held = sum
	s.section.Store(&data)
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

// admitBatch caps how many CEs the scan loop holds before handing them to
// the admission queue.
const admitBatch = 1024

// ingest is one site's scan loop: tail the log through the hardened
// scanner and offer every CE to the site's admission queue. The drainer —
// not this goroutine — feeds the engine, so a slow clustering step backs
// up into the queue (visible, bounded, shed by policy) instead of into
// the tail. CEs reach the queue in batches, one lock and one drainer wake
// each: a batch is flushed whenever the tail is about to wait for the log
// to grow (so a caught-up daemon holds nothing back), before every
// checkpoint capture (whose Freeze must see every record the captured
// offset covers), at admitBatch records, and when the scan ends. A
// checkpoint falls due -checkpoint-every after the last try and is
// captured at the next record or, once the tail has caught up, at its
// first wait with the admission queue drained, when every complete line
// is consumed and the alarm ledger can score every record. A capture is
// complete once the writer took it with a ledger that scored all its
// records; one whose scanner offset has not moved since the last
// complete capture is skipped, so an idle log is not rewritten, and a
// dropped or partial one is tried again when due. The follower is
// rotation-tolerant: after a rotation the scanner's checkpoint offsets
// live in stream coordinates, so every capture is translated into
// current-file coordinates first — an offset that still points into a
// rotated-away segment skips the capture (and is counted) rather than
// recording an unusable resume point. It returns the final checkpoint,
// already translated, and whether the translation held, so the shutdown
// path can persist the exact resume point once the queue has drained.
func (d *daemon) ingest(ctx context.Context, s *siteDaemon, q *overload.Queue[mce.CERecord], f *os.File, cp syslog.Checkpoint) (syslog.Checkpoint, bool, error) {
	var (
		follower *syslog.Follower
		sc       *syslog.Scanner
		batch    = make([]mce.CERecord, 0, admitBatch)
		lastTail syslog.TailStats
		// last is when a capture was last tried, captured the scanner
		// offset of the last complete one.
		last     time.Time
		captured int64
	)
	// flush admits the batch and publishes the scan and tail accounting
	// it covers (tail stats only move at rotations, so they are compared
	// before taking the lock).
	flush := func() {
		q.OfferBatch(batch)
		batch = batch[:0]
		s.publishStats(sc.Stats())
		if st := follower.Stats(); st != lastTail {
			lastTail = st
			s.publishTail(st)
		}
		s.offset.Store(sc.Offset())
	}
	// checkpoint captures a due checkpoint. It runs only between records
	// or at the tail's wait, where sc.Checkpoint covers exactly the
	// records flush admits. At the wait it holds off until the drainer
	// has emptied the queue (the next wait is a poll ceiling away at
	// most), since only the records in the engine are scored for alarms.
	checkpoint := func(idle bool) {
		if d.cfg.statePath == "" || time.Since(last) < d.cfg.checkpointSec || sc.Offset() == captured {
			return
		}
		flush()
		if idle && q.Depth() > 0 {
			return
		}
		if fcp, ok := d.translate(s, follower, sc.Checkpoint()); !ok {
			// The offset stays untranslatable until the scan moves on.
			captured = sc.Offset()
		} else if scored, err := d.snapshotSection(s, fcp); err != nil {
			d.log.Warn("checkpoint snapshot failed", "site", s.id, "err", err)
		} else if d.offerCheckpoint() && scored {
			captured = sc.Offset()
		}
		// Timed from the attempt's end, so a capture slower than the
		// interval still leaves the scan a whole interval.
		last = time.Now()
	}
	follower = syslog.NewFollower(ctx, f, syslog.TailConfig{Poll: d.cfg.poll, Path: s.logPath, OnWait: func() {
		flush()
		checkpoint(true)
	}})
	sc = syslog.NewScannerConfig(follower, d.scanConfig())
	if err := sc.Restore(cp); err != nil {
		return cp, false, err
	}
	last, captured = time.Now(), sc.Offset()
	s.publishTail(lastTail)
	for sc.Scan() {
		if ce := sc.CE(); ce != nil {
			if batch = append(batch, *ce); len(batch) == admitBatch {
				flush()
			}
		}
		checkpoint(false)
	}
	flush()

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
// snapshot. An optional pause between batches (-drain-interval) lets
// astrad's overload tests hold a backlog, and operators throttle a cold
// restore; it runs after Done, so checkpoints never wait out the pause.
// It takes the queue and engine of one incarnation explicitly so a
// supervised restart never crosses incarnations mid-batch.
func (d *daemon) drain(q *overload.Queue[mce.CERecord], eng *stream.Engine) {
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
// are always consistent with the records they ride with. Freeze stalls
// admission, so nothing inside it copies records: the records are an
// O(1) handle on the engine's log followed by Freeze's own copy of the
// queued records, and the section is encoded from them, lock-free,
// after Freeze returns. The section is published for the checkpoint
// writer, which writes every site's latest section; a capture whose
// checkpoint, shed count and ledger (after scoring) match the published
// section's is not encoded, and the section stays as it is. scored
// reports whether the queue was empty, so the ledger scored every
// record the section holds; still-queued records are scored at a later
// capture.
func (d *daemon) snapshotSection(s *siteDaemon, cp syslog.Checkpoint) (scored bool, err error) {
	snap := siteSnapshot{cp: cp}
	eng := s.engine()
	s.queue().Freeze(func(queued []mce.CERecord, _ overload.QueueStats) {
		snap.log = eng.RecordLog(queued)
		snap.shed = eng.Shed()
		s.alarms.observe(eng.Features(), d.predictor, d.cfg.riskThreshold, time.Now())
		snap.alarms = s.alarms.snapshot()
		scored = len(queued) == 0
	})
	sum, err := sumOf(snap)
	if err != nil {
		return false, err
	}
	if sum != s.held {
		data, err := marshalSection(snap)
		if err != nil {
			return false, err
		}
		s.publish(data, sum)
	}
	return scored, nil
}

// sections returns every site's latest published section, in site
// order. Sections are each internally consistent; sites tail independent
// logs, so a state file of sections captured moments apart is still a
// correct per-site resume point — and a quarantined site contributes
// its last-good section. A published section is never modified, so the
// writer can hold these slices while the sites publish new ones.
func (d *daemon) sections() [][]byte {
	secs := make([][]byte, len(d.sites))
	for i, s := range d.sites {
		secs[i] = *s.section.Load()
	}
	return secs
}

// offerCheckpoint hands the current sections to the async writer and
// reports whether it took them; if the writer is still busy with the
// previous snapshot (stalled disk), the checkpoint is skipped — cadence
// degrades, ingest does not.
func (d *daemon) offerCheckpoint() bool {
	select {
	case d.cpCh <- d.sections():
		return true
	default:
		d.cpSkipped.Add(1)
		d.log.Warn("checkpoint skipped", "reason", "writer busy")
		return false
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
	for secs := range d.cpCh {
		if !d.breaker.Allow() {
			d.cpSkipped.Add(1)
			continue
		}
		start := time.Now()
		size, err := d.persist(secs)
		elapsed := time.Since(start)
		switch {
		case err != nil:
			d.head = nil
			d.breaker.Failure()
			d.log.Warn("checkpoint failed", "err", err)
		case d.cfg.cpTimeout > 0 && elapsed > d.cfg.cpTimeout:
			// The write landed but the disk is stalling: trip toward open
			// so the next writes are skipped instead of piling up.
			d.head = secs
			d.breaker.Failure()
			d.checkpoints.Add(1)
			d.log.Warn("checkpoint slow", "elapsed", elapsed, "breaker", d.breaker.State().String())
		default:
			d.head = secs
			d.breaker.Success()
			d.checkpoints.Add(1)
			d.log.Info("checkpoint", "bytes", size, "offset", d.offsetBytes())
		}
	}
}

// atHead reports whether secs are, site for site, the sections of the
// state file at the head of the ladder.
func (d *daemon) atHead(secs [][]byte) bool {
	return d.head != nil && slices.EqualFunc(secs, d.head, bytes.Equal)
}

// persist writes one state file of the sites' sections (in site order)
// atomically at the head of the generation ladder, and returns its size:
// the previous state file slides to .1, .1 to .2, and so on up to
// -state-keep generations. Recovery walks the ladder newest-first, so a
// torn or bit-flipped newest file costs one checkpoint interval, not the
// whole state.
func (d *daemon) persist(secs [][]byte) (size int64, err error) {
	g := atomicio.Generations{FS: d.fs, Path: d.cfg.statePath, Keep: d.cfg.stateKeep}
	_, err = g.Write(context.Background(), func(w io.Writer) error {
		sw := &stateWriter{w: w}
		sw.printf("%s\nsites %d\n", stateMagic, len(secs))
		for i, sec := range secs {
			sw.printf("site %s\n", d.sites[i].id)
			sw.write(sec)
		}
		sw.write(sealCRC(sw.crc))
		size = sw.n
		return sw.err
	})
	return size, err
}

// stateWriter streams a state file in place: the header lines, each
// section slice as it is already resident, and the seal over the running
// CRC — no composed copy of the image.
type stateWriter struct {
	w   io.Writer
	crc uint32
	n   int64
	buf []byte
	err error
}

func (sw *stateWriter) write(b []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, b)
	var m int
	m, sw.err = sw.w.Write(b)
	sw.n += int64(m)
}

func (sw *stateWriter) printf(format string, args ...any) {
	sw.buf = fmt.Appendf(sw.buf[:0], format, args...)
	sw.write(sw.buf)
}

// stateMagic heads every state file. The format is one header line
// "sites N", then per site an id line and a section (see marshalSection),
// then the checksum trailer. Any other image — a torn write, a bit flip,
// a file from an older release — is a discarded generation.
const stateMagic = "astrad-state v5"

// checksumPrefix opens the integrity trailer that ends every state file:
// "checksum crc32 %08x\n" over every byte before it. The trailer is fixed
// width, so openState finds it by position: the records sections are
// binary, so no byte value (a newline included) marks where it starts.
const (
	checksumPrefix = "checksum crc32 "
	sealLen        = len(checksumPrefix) + 8 + 1
)

// seal renders the checksum trailer for body.
func seal(body []byte) []byte { return sealCRC(crc32.ChecksumIEEE(body)) }

// sealCRC renders the checksum trailer for a body whose CRC32 is crc.
func sealCRC(crc uint32) []byte {
	return fmt.Appendf(make([]byte, 0, sealLen), "%s%08x\n", checksumPrefix, crc)
}

// openState verifies and strips the checksum trailer. An image without
// one is rejected like a corrupt one: every state file is sealed.
func openState(data []byte) ([]byte, error) {
	if len(data) < sealLen {
		return nil, fmt.Errorf("astrad: state file: %d bytes, too short for the checksum trailer", len(data))
	}
	body, trailer := data[:len(data)-sealLen], data[len(data)-sealLen:]
	if !bytes.HasPrefix(trailer, []byte(checksumPrefix)) || trailer[sealLen-1] != '\n' {
		return nil, fmt.Errorf("astrad: state file: no checksum trailer in the last %d bytes", sealLen)
	}
	if want := seal(body); !bytes.Equal(trailer, want) {
		return nil, fmt.Errorf("astrad: state file: checksum mismatch: trailer %q, content %s over %d bytes",
			trailer[len(checksumPrefix):sealLen-1], want[len(checksumPrefix):sealLen-1], len(body))
	}
	return body, nil
}

// siteSnapshot is one site's durable state, restored or captured.
// section is the slice of the state file it was parsed from (nil for a
// site the file does not hold), so a restored site publishes those bytes
// as its first checkpoint section instead of marshaling them again.
type siteSnapshot struct {
	id   string
	cp   syslog.Checkpoint
	shed uint64
	// log holds the site's records: a restored section's, decoded into
	// record log rows that stream.Restore adopts, or a live capture's
	// (the engine's log, then the queued records).
	log     stream.RecordLog
	alarms  []alarmEntry
	section []byte
}

// marshalSection renders one site's durable state section:
//
//	checkpoint <len>\n<scanner checkpoint>
//	shed <n>\n
//	records <len>\n<CE-only colfmt blob>\n
//	alarms <n>\n
//	alarm <host> <slot> <rank> <bank> <unix nanos>\n   (n lines)
//
// Restoring the records into a fresh engine reproduces the fault state
// exactly (the engine's replay contract), the
// shed count restores the degraded accounting, the scanner checkpoint
// resumes the tail at the matching byte, and the ledger keeps when each
// bank first alarmed (not reconstructible from records). The records
// are columnar so a restart decodes them straight into the engine's
// record log instead of parsing text.
func marshalSection(snap siteSnapshot) ([]byte, error) {
	cpb, err := snap.cp.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if err := colfmt.WriteCE(&blob, snap.log); err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(make([]byte, 0, len(cpb)+blob.Len()+len(snap.alarms)*alarmLineBytes+64))
	fmt.Fprintf(b, "checkpoint %d\n", len(cpb))
	b.Write(cpb)
	fmt.Fprintf(b, "shed %d\nrecords %d\n", snap.shed, blob.Len())
	b.Write(blob.Bytes())
	b.WriteByte('\n')
	appendAlarms(b, snap.alarms)
	return b.Bytes(), nil
}

// alarmLineBytes pre-sizes a section's alarm lines
// ("alarm <host> <slot> <rank> <bank> <unix>\n"); an estimate that comes
// up short only costs a regrowth.
const alarmLineBytes = 48

// stateReader walks a state image front to back. Every error names the
// site being parsed, once known, and the byte offset where parsing
// stopped, so a damaged generation is diagnosable from the log line
// alone.
type stateReader struct {
	data []byte
	off  int
	site string
}

func (r *stateReader) fail(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if r.site != "" {
		msg = "site " + r.site + ": " + msg
	}
	return fmt.Errorf("astrad: state file: %s at byte %d", msg, r.off)
}

// line consumes one newline-terminated line and returns it without the
// newline; ok is false, and nothing is consumed, if no newline is left.
func (r *stateReader) line() (line []byte, ok bool) {
	i := bytes.IndexByte(r.data[r.off:], '\n')
	if i < 0 {
		return nil, false
	}
	line = r.data[r.off : r.off+i]
	r.off += i + 1
	return line, true
}

// header consumes a "<name> <decimal>" line.
func (r *stateReader) header(name string) (uint64, error) {
	at := r.off
	line, ok := r.line()
	v, named := bytes.CutPrefix(line, []byte(name+" "))
	n, err := strconv.ParseUint(string(v), 10, 64)
	if !ok || !named || err != nil {
		r.off = at
		return 0, r.fail("bad %s header", name)
	}
	return n, nil
}

// count consumes a header whose value counts bytes or lines still to
// come, so it can never exceed the bytes left: a larger value is
// corruption, and must not drive an allocation or a loop. A sealed image
// can still carry one — CRC32 detects accidents, it is not a MAC.
func (r *stateReader) count(name string) (int, error) {
	n, err := r.header(name)
	if err != nil {
		return 0, err
	}
	if left := len(r.data) - r.off; n > uint64(left) {
		return 0, r.fail("%s %d exceeds the %d bytes left", name, n, left)
	}
	return int(n), nil
}

// section parses one site section (see marshalSection).
func (r *stateReader) section() (snap siteSnapshot, err error) {
	n, err := r.count("checkpoint")
	if err != nil {
		return snap, err
	}
	if err := snap.cp.UnmarshalBinary(r.data[r.off : r.off+n]); err != nil {
		return snap, r.fail("checkpoint: %v", err)
	}
	r.off += n
	if snap.shed, err = r.header("shed"); err != nil {
		return snap, err
	}
	if n, err = r.count("records"); err != nil {
		return snap, err
	}
	blob := r.data[r.off : r.off+n]
	if r.off+n >= len(r.data) || r.data[r.off+n] != '\n' {
		return snap, r.fail("records: %d-byte blob not newline-terminated", n)
	}
	// The rows are range-checked as they are decoded, so a record that
	// fails mce.CERecord.CheckRanges discards the generation here.
	if snap.log, err = stream.DecodeRecordLog(blob); err != nil {
		return snap, r.fail("records: %v", err)
	}
	r.off += n + 1
	snap.alarms, err = r.alarms()
	return snap, err
}

// unmarshal verifies a state image's seal and parses it into per-site
// snapshots, each holding the slice of data its section was parsed from.
func unmarshal(data []byte) ([]siteSnapshot, error) {
	body, err := openState(data)
	if err != nil {
		return nil, err
	}
	r := &stateReader{data: body}
	if magic, ok := r.line(); !ok || string(magic) != stateMagic {
		r.off = 0
		return nil, r.fail("header %.40q, want %q", magic, stateMagic)
	}
	n, err := r.count("sites")
	if err != nil {
		return nil, err
	}
	var snaps []siteSnapshot
	for i := 0; i < n; i++ {
		r.site = ""
		line, _ := r.line()
		id, ok := bytes.CutPrefix(line, []byte("site "))
		if !ok || len(id) == 0 {
			return nil, r.fail("bad site header at section %d", i)
		}
		r.site = string(id)
		for _, prev := range snaps {
			if prev.id == r.site {
				return nil, r.fail("duplicate site")
			}
		}
		start := r.off
		snap, err := r.section()
		if err != nil {
			return nil, err
		}
		snap.id, snap.section = r.site, body[start:r.off]
		snaps = append(snaps, snap)
	}
	if r.off != len(body) {
		r.site = ""
		return nil, r.fail("%d trailing bytes", len(body)-r.off)
	}
	return snaps, nil
}

// parseSection decodes a site's in-memory section, which must hold
// exactly one section.
func parseSection(sec []byte, site string) (siteSnapshot, error) {
	r := &stateReader{data: sec, site: site}
	snap, err := r.section()
	if err == nil && r.off != len(sec) {
		err = r.fail("%d trailing bytes", len(sec)-r.off)
	}
	snap.id, snap.section = site, sec
	return snap, err
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
		s, derr := unmarshal(data)
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
