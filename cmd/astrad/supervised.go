// Per-site supervision: each site's scanner -> queue -> drainer pipeline
// runs as one restartable unit under internal/supervise. A panic or
// ingest error tears down only that site's incarnation; the supervisor
// backs off and restarts it from the site's last checkpoint section,
// and a site that exhausts its restart budget is quarantined — its
// engine keeps serving the last-good answers and its section keeps
// riding along in every checkpoint, while the other sites ingest on.
// The paper's operational lesson, applied to the collector itself: the
// monitoring plane must degrade per-fault-domain, not fleet-wide.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/syslog"
)

var _ serve.Source = (*siteDaemon)(nil)

// health adapts the site's supervision ladder for the HTTP layer. Before
// the supervisor has spawned the unit the site reports running — the
// startup window is not a fault.
func (s *siteDaemon) health() serve.SiteHealth {
	u := s.unit.Load()
	if u == nil {
		return serve.SiteHealth{State: serve.SiteRunning}
	}
	h := u.Health()
	return serve.SiteHealth{
		State:          h.State,
		Restarts:       h.Restarts,
		LastError:      h.LastError,
		RetryInSeconds: h.RetryInSeconds,
	}
}

// buildPipeline constructs one engine+queue incarnation restored from a
// snapshot's record log. Every shed record is charged to the engine's
// degraded accounting: offered == ingested + shed, and every analysis
// that undercounts says so.
func (d *daemon) buildPipeline(snap siteSnapshot) (*stream.Engine, *overload.Queue[mce.CERecord]) {
	eng := stream.Restore(stream.Config{Window: d.cfg.window, DIMMs: d.cfg.dimms}, snap.log)
	q := overload.NewQueue[mce.CERecord](overload.Config{
		Capacity: d.cfg.queueDepth,
		High:     d.cfg.queueHigh,
		Low:      d.cfg.queueLow,
		Policy:   d.cfg.shedPolicy,
		OnShed:   func(n int) { eng.NoteShed(n) },
	})
	if snap.shed > 0 {
		eng.NoteShed(int(snap.shed))
	}
	return eng, q
}

// rebuild replaces the site's pipeline with a fresh incarnation restored
// from snap, publishing the engine and queue atomically for the HTTP
// readers.
func (d *daemon) rebuild(s *siteDaemon, snap siteSnapshot) (*stream.Engine, *overload.Queue[mce.CERecord]) {
	eng, q := d.buildPipeline(snap)
	s.eng.Store(eng)
	s.q.Store(q)
	return eng, q
}

// runSite is one supervised incarnation of a site's pipeline. The first
// run adopts the startup-built engine and queue (restored from the state
// ladder); every restart rebuilds both from the site's last in-memory
// checkpoint section, so a crash costs at most the records scanned since
// that section was captured — and those are re-scanned from the log,
// because the section's checkpoint is the resume point. Opening the log
// happens inside the unit: a missing or unreadable log is a restartable
// fault (the file may appear later), not a fatal one.
func (d *daemon) runSite(ctx context.Context, s *siteDaemon) error {
	eng, q, cp := s.engine(), s.queue(), s.resumeCP
	if !s.primed.CompareAndSwap(true, false) {
		snap, err := parseSection(*s.section.Load(), s.id)
		if err != nil {
			// The section was authored by this process, so this is a bug,
			// not an I/O fault — but a cold restart beats no restart.
			d.log.Warn("site section unreadable; rebuilding from scratch", "site", s.id, "err", err)
			snap = siteSnapshot{id: s.id}
			s.held = sectionSum{} // it no longer describes the section
		}
		s.alarms.replace(snap.alarms)
		eng, q = d.rebuild(s, snap)
		cp = snap.cp
		d.log.Info("site pipeline rebuilt", "site", s.id, "records", snap.log.Len(), "offset", cp.Offset)
	}

	f, err := os.Open(s.logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < cp.Offset {
		// The log shrank beneath the checkpoint (rotation/truncation while
		// down): the saved state describes bytes that no longer exist.
		d.log.Warn("log shorter than checkpoint; starting fresh",
			"site", s.id, "size", fi.Size(), "offset", cp.Offset)
		// A fresh log means the ledger's history is no longer tied to the
		// records that produced it; drop it with the engine state.
		s.alarms.replace(nil)
		eng, q = d.rebuild(s, siteSnapshot{id: s.id})
		cp = syslog.Checkpoint{}
		if sec, err := marshalSection(siteSnapshot{}); err == nil {
			s.publish(sec, sectionSum{})
		}
	}
	if _, err := f.Seek(cp.Offset, io.SeekStart); err != nil {
		return err
	}

	// The drainer is part of the unit: a panic in the engine's ingest
	// path must fail the whole incarnation, not strand the tail behind a
	// queue nobody drains.
	tailCtx, cancelTail := context.WithCancel(ctx)
	defer cancelTail()
	drainErr := make(chan error, 1)
	go func() {
		derr := d.drainCaptured(q, eng)
		drainErr <- derr
		if derr != nil {
			cancelTail()
		}
	}()

	fcp, ok, ingErr := d.ingest(tailCtx, s, q, f, cp)
	q.Close()
	derr := <-drainErr
	switch {
	case ingErr != nil:
		return fmt.Errorf("site %s: ingest: %w", s.id, ingErr)
	case derr != nil:
		return fmt.Errorf("site %s: drain: %w", s.id, derr)
	}
	// Clean stop (shutdown): the queue has fully drained into the engine,
	// so capture the final consistent section for the last state write —
	// unless the resume offset is untranslatable (stopped mid-rotation),
	// in which case the previous section remains the honest resume point.
	if d.cfg.statePath != "" && ok {
		if _, err := d.snapshotSection(s, fcp); err != nil {
			d.log.Warn("final section capture failed", "site", s.id, "err", err)
		}
	}
	return nil
}

// drainCaptured runs the drain loop with panic capture, so an engine
// bug surfaces as a supervised unit failure.
func (d *daemon) drainCaptured(q *overload.Queue[mce.CERecord], eng *stream.Engine) (err error) {
	defer parallel.Recover(&err)
	d.drain(q, eng)
	return nil
}

// superviseSites spawns every site's pipeline under one supervisor and
// publishes each unit for the HTTP health hooks.
func (d *daemon) superviseSites(ctx context.Context) *supervise.Supervisor {
	sup := supervise.New(supervise.Config{
		BackoffBase: d.cfg.restartBackoff,
		BackoffMax:  d.cfg.restartBackoffMax,
		Budget:      d.cfg.restartBudget,
		ResetAfter:  d.cfg.restartReset,
		OnTransition: func(tr supervise.Transition) {
			switch tr.To {
			case supervise.StateBackoff:
				d.log.Warn("site pipeline failed; restarting", "site", tr.Unit, "err", tr.Err,
					"delay", tr.Delay, "restarts", tr.Restarts)
			case supervise.StateQuarantined:
				d.log.Error("site pipeline quarantined", "site", tr.Unit, "err", tr.Err,
					"restarts", tr.Restarts)
			case supervise.StateRunning:
				if tr.Restarts > 0 {
					d.log.Info("site pipeline restarted", "site", tr.Unit, "restarts", tr.Restarts)
				}
			}
		},
	})
	for _, s := range d.sites {
		s := s
		u := sup.Go(ctx, s.id, func(uctx context.Context) error { return d.runSite(uctx, s) })
		s.unit.Store(u)
	}
	return sup
}
