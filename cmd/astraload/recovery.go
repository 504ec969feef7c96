// The recovery scenario is the self-healing proof: a real tail -> scan
// -> ingest pipeline with generational sealed checkpoints is killed
// mid-tail right after its log rotated, its newest state generation is
// bit-flipped, and a restarted incarnation must walk the checkpoint
// ladder to the surviving generation, re-ingest the offset delta, and
// converge to the exact batch answer within a bounded time. It is the
// same contract cmd/astrad lives by, exercised here with deterministic
// chaos so BENCH_serve.json can pin "crash recovery converges" next to
// the latency and shed-rate numbers.
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
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// Recovery-pipeline ingest policy, matching the astrad defaults the
// daemon tests converge under.
const (
	recoveryDedup   = 64
	recoveryReorder = 5 * time.Minute
	recoveryNoise   = 50
	recoveryPoll    = 2 * time.Millisecond
)

// RecoverySpec pins the kill+corrupt+rotate recovery scenario. Like the
// load Scenario, every field is echoed into the baseline so -guard
// re-runs it exactly.
type RecoverySpec struct {
	Seed  uint64 `json:"seed"`
	Nodes int    `json:"nodes"`
	// Keep is the checkpoint ladder depth (atomicio.Generations).
	Keep int `json:"keep"`
	// BoundMS is the hard cap on recovery: the restarted pipeline must
	// converge to the batch answer within this long or the scenario
	// fails outright.
	BoundMS float64 `json:"boundMS"`
}

// RecoveryResult is the recovery scenario's verdict and accounting.
type RecoveryResult struct {
	// ConvergedOK means the restarted pipeline reached the exact batch
	// answer (records, faults, per-mode breakdowns) within BoundMS, and
	// every structural expectation held (exactly one generation
	// discarded, one rotation absorbed, survivor resumable). Detail
	// says what went wrong when it is false.
	ConvergedOK bool   `json:"convergedOK"`
	Detail      string `json:"detail,omitempty"`
	// RecoveryMs is restart-to-convergence: ladder walk, state restore,
	// and re-ingest of the offset delta.
	RecoveryMs float64 `json:"recoveryMs"`
	// GenerationsDiscarded counts ladder rungs rejected at restart (the
	// bit-flipped newest generation: exactly 1).
	GenerationsDiscarded int `json:"generationsDiscarded"`
	// SurvivorGeneration is the rung the restart resumed from (>= 1).
	SurvivorGeneration int `json:"survivorGeneration"`
	// Rotations is how many log rotations the first incarnation's
	// follower absorbed mid-tail (the scenario performs 1).
	Rotations int64 `json:"rotations"`
	// Checkpoints counts ladder writes before the kill.
	Checkpoints int `json:"checkpoints"`
	// RecordsRestored came from the surviving generation's state;
	// RecordsReplayed were re-ingested from the log past its offset.
	RecordsRestored int `json:"recordsRestored"`
	RecordsReplayed int `json:"recordsReplayed"`
	Records         int `json:"records"`
	Faults          int `json:"faults"`
}

// recoveryState is the sealed checkpoint payload: a header line, the
// scanner checkpoint (binary), the engine's records (colfmt), and a
// fixed-width crc32 trailer so a single flipped bit anywhere is caught.
const (
	recoveryMagic     = "astraload-recovery v1"
	recoveryCkPrefix  = "checksum crc32 "
	recoveryCkTrailer = len(recoveryCkPrefix) + 8 + 1
)

func marshalRecoveryState(cp syslog.Checkpoint, recs []mce.CERecord) ([]byte, error) {
	cpb, err := cp.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s checkpoint %d\n", recoveryMagic, len(cpb))
	buf.Write(cpb)
	if err := colfmt.Write(&buf, colfmt.Records{CEs: recs}); err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "%s%08x\n", recoveryCkPrefix, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes(), nil
}

func unmarshalRecoveryState(data []byte) (syslog.Checkpoint, []mce.CERecord, error) {
	var cp syslog.Checkpoint
	if len(data) < recoveryCkTrailer {
		return cp, nil, fmt.Errorf("astraload: recovery state: %d bytes, too short for a checksum trailer", len(data))
	}
	body, trailer := data[:len(data)-recoveryCkTrailer], data[len(data)-recoveryCkTrailer:]
	if !bytes.HasPrefix(trailer, []byte(recoveryCkPrefix)) || trailer[len(trailer)-1] != '\n' {
		return cp, nil, fmt.Errorf("astraload: recovery state: malformed checksum trailer")
	}
	want, err := strconv.ParseUint(string(trailer[len(recoveryCkPrefix):len(trailer)-1]), 16, 32)
	if err != nil {
		return cp, nil, fmt.Errorf("astraload: recovery state: checksum trailer: %v", err)
	}
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return cp, nil, fmt.Errorf("astraload: recovery state: checksum mismatch: stored %08x computed %08x", want, got)
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return cp, nil, fmt.Errorf("astraload: recovery state: missing header line")
	}
	var cpLen int
	if _, err := fmt.Sscanf(string(body[:nl]), recoveryMagic+" checkpoint %d", &cpLen); err != nil {
		return cp, nil, fmt.Errorf("astraload: recovery state: bad header %q", body[:nl])
	}
	rest := body[nl+1:]
	if cpLen < 0 || cpLen > len(rest) {
		return cp, nil, fmt.Errorf("astraload: recovery state: checkpoint length %d exceeds %d payload bytes", cpLen, len(rest))
	}
	if err := cp.UnmarshalBinary(rest[:cpLen]); err != nil {
		return cp, nil, fmt.Errorf("astraload: recovery state: checkpoint: %w", err)
	}
	recs, err := colfmt.Decode(rest[cpLen:])
	if err != nil {
		return cp, nil, fmt.Errorf("astraload: recovery state: records: %w", err)
	}
	return cp, recs.CEs, nil
}

// recoveryCounters is the one-way telemetry from a pipeline incarnation
// to the orchestrator: how far the tail has read, how many ladder writes
// happened, how many rotations the follower absorbed, and how many CEs
// the engine holds. The orchestrator paces the chaos off these.
type recoveryCounters struct {
	checkpoints atomic.Int64
	rotations   atomic.Int64
	ingested    atomic.Int64
}

// runRecoveryTail is one pipeline incarnation: tail logPath from cp,
// ingest every CE, and write a sealed generation every cpEvery CEs. It
// does NOT checkpoint on the way out — a cancelled incarnation dies as
// abruptly as a crash, which is the point. stopAt > 0 ends the run
// cleanly once the engine holds that many records (the restarted
// incarnation's convergence condition).
func runRecoveryTail(ctx context.Context, logPath string, gens atomicio.Generations, eng *stream.Engine,
	cp syslog.Checkpoint, base int, cpEvery int, stopAt int, ctr *recoveryCounters) error {
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(cp.Offset, io.SeekStart); err != nil {
		return err
	}
	follower := syslog.NewFollower(ctx, f, syslog.TailConfig{Poll: recoveryPoll, Path: logPath})
	sc := syslog.NewScannerConfig(follower, syslog.ScanConfig{
		DedupWindow:   recoveryDedup,
		ReorderWindow: recoveryReorder,
	})
	if err := sc.Restore(cp); err != nil {
		return err
	}
	count, sinceCP := base, 0
	for sc.Scan() {
		ctr.rotations.Store(follower.Stats().Rotations)
		if rec := sc.Record(); rec.Kind == syslog.KindCE {
			eng.IngestBatch([]mce.CERecord{rec.CE})
			count++
			sinceCP++
			ctr.ingested.Store(int64(count))
		}
		if stopAt > 0 && count >= stopAt {
			return nil
		}
		if sinceCP >= cpEvery {
			sinceCP = 0
			ccp := sc.Checkpoint()
			off, ok := follower.FileOffset(ccp.Offset)
			if !ok {
				continue // offset predates the rotation; nothing resumable
			}
			ccp.Offset = off
			data, merr := marshalRecoveryState(ccp, eng.Records())
			if merr != nil {
				return merr
			}
			if _, werr := gens.Write(context.Background(), func(w io.Writer) error {
				_, e := w.Write(data)
				return e
			}); werr != nil {
				return werr
			}
			ctr.checkpoints.Add(1)
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, syslog.ErrTailStopped) {
		return err
	}
	return nil
}

// waitUntil polls cond once a millisecond until it holds or the deadline
// passes.
func waitUntil(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// run executes the recovery scenario. Orchestration errors (dataset
// build, filesystem) surface as err; broken recovery semantics surface
// as ConvergedOK=false with Detail, so -guard and the baseline gate
// treat them as contract violations.
func (rs RecoverySpec) run(ctx context.Context, logger *slog.Logger) (RecoveryResult, error) {
	var rr RecoveryResult
	fail := func(format string, args ...any) (RecoveryResult, error) {
		rr.Detail = fmt.Sprintf(format, args...)
		logger.Error("recovery scenario failed", "detail", rr.Detail)
		return rr, nil
	}

	// The truth: the full dataset's syslog with a far-future HET sentinel
	// so the reorder window releases every CE, and the batch answer over
	// exactly the records the hardened read admits.
	cfg := dataset.DefaultConfig(rs.Seed)
	cfg.Nodes = rs.Nodes
	ds, err := dataset.Build(ctx, cfg)
	if err != nil {
		return rr, err
	}
	var full bytes.Buffer
	if err := ds.WriteSyslog(&full, recoveryNoise); err != nil {
		return rr, err
	}
	var maxT time.Time
	for _, r := range ds.CERecords {
		if r.Time.After(maxT) {
			maxT = r.Time
		}
	}
	full.WriteString(syslog.FormatHET(het.Record{
		Time:     maxT.Add(recoveryReorder + time.Minute),
		Node:     ds.CERecords[0].Node,
		Type:     het.UncorrectableECC,
		Severity: het.SeverityNonRecoverable,
	}))
	full.WriteByte('\n')
	log := full.Bytes()
	pol := dataset.IngestPolicy{DedupWindow: recoveryDedup, ReorderWindow: recoveryReorder, MaxMalformedFrac: -1}
	want, _, _, _, err := dataset.ReadSyslogPolicy(bytes.NewReader(log), pol)
	if err != nil {
		return rr, err
	}
	if len(want) == 0 {
		return rr, fmt.Errorf("astraload: recovery: dataset produced no CE records")
	}
	wantBatch, err := core.Cluster(ctx, want, core.DefaultClusterConfig())
	if err != nil {
		return rr, err
	}
	wantBreak := core.BreakdownByMode(want, wantBatch)

	// Split at a line boundary: s1 is the pre-rotation log, s2 the
	// successor file the rotation installs.
	cut := bytes.LastIndexByte(log[:len(log)/2], '\n') + 1
	if cut <= 0 {
		return rr, fmt.Errorf("astraload: recovery: no line boundary in first half of log")
	}
	s1, s2 := log[:cut], log[cut:]

	dir, err := os.MkdirTemp("", "astraload-recovery")
	if err != nil {
		return rr, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "astra.log")
	statePath := filepath.Join(dir, "astraload-state")
	if err := os.WriteFile(logPath, s1, 0o644); err != nil {
		return rr, err
	}
	gens := atomicio.Generations{Path: statePath, Keep: rs.Keep}
	mkEngine := func() *stream.Engine {
		return stream.New(stream.Config{DIMMs: rs.Nodes * topology.SlotsPerNode})
	}
	bound := time.Duration(rs.BoundMS * float64(time.Millisecond))
	deadline := time.Now().Add(bound)
	cpEvery := len(want) / 12
	if cpEvery < 1 {
		cpEvery = 1
	}

	// Incarnation A: tail from offset 0, checkpointing to the ladder.
	ctxA, cancelA := context.WithCancel(ctx)
	defer cancelA()
	engA := mkEngine()
	var ctr recoveryCounters
	aDone := make(chan error, 1)
	go func() {
		aDone <- runRecoveryTail(ctxA, logPath, gens, engA, syslog.Checkpoint{}, 0, cpEvery, 0, &ctr)
	}()
	fatalA := func() (RecoveryResult, error, bool) {
		select {
		case aerr := <-aDone:
			return rr, fmt.Errorf("astraload: recovery: pipeline died during chaos: %v", aerr), true
		default:
			return rr, nil, false
		}
	}
	if !waitUntil(deadline, func() bool { return ctr.checkpoints.Load() >= 1 }) {
		if r, e, died := fatalA(); died {
			return r, e
		}
		return fail("no checkpoint written within %v", bound)
	}

	// Rotate mid-tail: classic rename-and-recreate. The follower drains
	// the renamed inode, then reopens the successor at offset 0.
	if err := os.Rename(logPath, logPath+".old"); err != nil {
		return rr, err
	}
	if err := os.WriteFile(logPath, s2, 0o644); err != nil {
		return rr, err
	}
	if !waitUntil(deadline, func() bool { return ctr.rotations.Load() >= 1 }) {
		if r, e, died := fatalA(); died {
			return r, e
		}
		return fail("follower never absorbed the rotation within %v", bound)
	}
	// At least two ladder writes after the rotation was absorbed: with
	// the newest generation corrupted, the survivor must still carry a
	// successor-file offset.
	cpAtRotate := ctr.checkpoints.Load()
	if !waitUntil(deadline, func() bool { return ctr.checkpoints.Load() >= cpAtRotate+2 }) {
		if r, e, died := fatalA(); died {
			return r, e
		}
		return fail("fewer than 2 post-rotation checkpoints within %v", bound)
	}

	// Kill: cancel with no farewell checkpoint, then flip one bit in the
	// newest generation — the crash left a torn/corrupted newest state.
	cancelA()
	if aerr := <-aDone; aerr != nil {
		return rr, fmt.Errorf("astraload: recovery: pipeline error at kill: %v", aerr)
	}
	rr.Checkpoints = int(ctr.checkpoints.Load())
	rr.Rotations = ctr.rotations.Load()
	if _, _, err := iofault.FlipBit(gens.Gen(0), rs.Seed|1); err != nil {
		return rr, err
	}

	// Restart: walk the ladder, restore the survivor, re-ingest the
	// delta, and converge — the clock measures all of it.
	restart := time.Now()
	data, gen, discarded, err := gens.Load(func(b []byte) error {
		_, _, verr := unmarshalRecoveryState(b)
		return verr
	})
	if err != nil {
		return rr, err
	}
	rr.GenerationsDiscarded = len(discarded)
	rr.SurvivorGeneration = gen
	if len(discarded) != 1 {
		return fail("discarded %d generations, want exactly the bit-flipped newest", len(discarded))
	}
	if gen < 1 {
		return fail("survivor generation = %d, want >= 1", gen)
	}
	cp, recs, err := unmarshalRecoveryState(data)
	if err != nil {
		return rr, err
	}
	rr.RecordsRestored = len(recs)
	if fi, err := os.Stat(logPath); err != nil {
		return rr, err
	} else if fi.Size() < cp.Offset {
		return fail("survivor offset %d beyond successor log size %d: resume point not in rotated file", cp.Offset, fi.Size())
	}
	engB := mkEngine()
	engB.IngestBatch(recs)
	ctxB, cancelB := context.WithDeadline(ctx, deadline)
	defer cancelB()
	var ctrB recoveryCounters
	berr := runRecoveryTail(ctxB, logPath, atomicio.Generations{Path: statePath + ".post", Keep: rs.Keep},
		engB, cp, len(recs), cpEvery, len(want), &ctrB)
	rr.RecoveryMs = float64(time.Since(restart).Microseconds()) / 1000
	if berr != nil {
		return rr, fmt.Errorf("astraload: recovery: restarted pipeline: %v", berr)
	}
	rr.RecordsReplayed = int(ctrB.ingested.Load()) - len(recs)

	sum := engB.Summary()
	rr.Records = sum.Records
	rr.Faults = sum.Faults
	if sum.Records != len(want) {
		return fail("recovered %d records within %v, want %d (restored %d, replayed %d)",
			sum.Records, bound, len(want), rr.RecordsRestored, rr.RecordsReplayed)
	}
	if sum.Faults != len(wantBatch) || sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		return fail("recovered population diverged from batch: faults %d want %d, by-mode %v want %v",
			sum.Faults, len(wantBatch), sum.FaultsByMode, wantBreak.FaultsByMode)
	}
	rr.ConvergedOK = true
	logger.Info("recovery converged",
		"ms", rr.RecoveryMs, "survivorGen", gen, "discarded", len(discarded),
		"restored", rr.RecordsRestored, "replayed", rr.RecordsReplayed)
	return rr, nil
}
