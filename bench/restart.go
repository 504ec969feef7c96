package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/dataset"
)

// boot is one astrad start over a complete log: exec to listening, exec
// to every releasable record visible, and the answer it then serves.
type boot struct {
	p       *proc
	listen  time.Duration
	visible time.Duration
	bd      []byte
	faults  []byte
}

// bootDaemon starts astrad and polls /v1/breakdown every pollEvery until
// it serves want records.
func (rn *runner) bootDaemon(ctx context.Context, res *Result, logPath, stateDir string, want int) (*boot, error) {
	p, addr, listen, err := startDaemon(filepath.Join(rn.bin, "astrad"), astradArgs(logPath, stateDir))
	if err != nil {
		return nil, err
	}
	b := &boot{p: p, listen: listen}
	c := newClient()
	defer c.CloseIdleConnections()
	base := "http://" + addr
	etag, records := "", 0
	for k := 0; records < want; k++ {
		if time.Since(p.start) > catchUpLimit*4 {
			_, _ = p.stop()
			return nil, fmt.Errorf("astrad served %d of %d records after %v", records, want, time.Since(p.start))
		}
		if !sleepUntil(ctx, p.start.Add(listen+time.Duration(k)*pollEvery)) {
			_, _ = p.stop()
			return nil, ctx.Err()
		}
		r := get(c, base+"/v1/breakdown", etag)
		res.Attempted++
		var bd breakdown
		switch {
		case !r.ok():
			res.fail("visibility poll: %d %v", r.code, r.err)
		case r.code == http.StatusOK:
			if err := json.Unmarshal(r.body, &bd); err != nil {
				res.fail("visibility poll: %v", err)
				continue
			}
			records, etag = bd.Records, r.etag
		}
		b.visible = r.done.Sub(p.start)
	}
	bd, fl := get(c, base+"/v1/breakdown", ""), get(c, base+"/v1/faults", "")
	res.Attempted += 2
	if !bd.ok() || !fl.ok() {
		res.fail("answer: /v1/breakdown %d %v, /v1/faults %d %v", bd.code, bd.err, fl.code, fl.err)
	}
	b.bd, b.faults = bd.body, fl.body
	return b, nil
}

// sameBreakdown compares two /v1/breakdown bodies field by field, except
// "escalations": it counts mode escalations this process observed
// between its own ingest batches, which is not part of the restored
// state (a warm restart replays the whole state as one batch and
// observes none), so it legitimately differs across a restart.
func sameBreakdown(a, b []byte) bool {
	var ma, mb map[string]any
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return false
	}
	delete(ma, "escalations")
	delete(mb, "escalations")
	return reflect.DeepEqual(ma, mb)
}

// runLiveRestart is the live-restart workload: cycles of a cold start on
// a complete log with a fresh state directory, SIGTERM, a warm restart
// on the state it wrote, SIGTERM, until the run length is spent.
func (rn *runner) runLiveRestart(ctx context.Context, res *Result) error {
	logPath := filepath.Join(rn.work, "astra-syslog.log")
	var text []byte
	err := rn.setupReps(ctx, res, func(ds *dataset.Dataset) (func() error, error) {
		text, _ = render(make([]byte, 0, rn.sc.RestartLines*170), ds, rn.sc.RestartLines, 0)
		return nil, os.WriteFile(logPath, text, 0o644)
	})
	if err != nil {
		return err
	}

	rel, err := scanReference(text)
	if err != nil {
		return err
	}
	total := len(rel.recs)
	want, err := reference(ctx, rel.recs)
	if err != nil {
		return err
	}
	var catchup, restart, shutdown, cpuPerRec, cpus, rss, peaks, listens []float64
	var stateBytes int64
	deadline := time.Now().Add(rn.seconds)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		stateDir := filepath.Join(rn.work, fmt.Sprintf("state-%d", cycle))
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
		var boots [2]*boot
		var cpu time.Duration
		var rssSum, peakSum float64
		for i := range boots {
			rn.speed.burst()
			b, err := rn.bootDaemon(ctx, res, logPath, stateDir, total)
			if err != nil {
				return err
			}
			shut, err := b.p.stop()
			if err != nil {
				res.fail("astrad shutdown: %v", err)
			}
			boots[i] = b
			shutdown = append(shutdown, shut.Seconds())
			cpu += b.p.cpu()
			peak := b.p.peakMB()
			peakSum += peak
			if m := b.p.rssBetween(b.p.start, time.Time{}); len(m) > 0 {
				rssSum += median(m)
			} else {
				rssSum += peak
			}
		}
		cold, warm := boots[0], boots[1]
		res.Attempted += total + 2
		catchup = append(catchup, float64(total)/cold.visible.Seconds())
		restart = append(restart, warm.visible.Seconds())
		listens = append(listens, warm.listen.Seconds())
		cpus = append(cpus, cpu.Seconds())
		cpuPerRec = append(cpuPerRec, float64(cpu.Nanoseconds())/float64(2*total))
		rss = append(rss, rssSum/2)
		peaks = append(peaks, peakSum/2)
		for _, msg := range checkAnswer(want, cold.bd, cold.faults) {
			res.fail("cycle %d cold answer: %s", cycle+1, msg)
		}
		if !sameBreakdown(warm.bd, cold.bd) || !bytes.Equal(warm.faults, cold.faults) {
			res.fail("cycle %d: warm-restart answer differs from the cold answer", cycle+1)
		}
		if fi, err := os.Stat(filepath.Join(stateDir, "astrad.state")); err == nil {
			stateBytes = fi.Size()
		}
		if err := os.RemoveAll(stateDir); err != nil {
			return err
		}
	}
	res.set("answer_p50_ms", median(restart)*1e3, "ms", len(restart))
	res.set("records_per_s", median(catchup), "1/s", len(catchup))
	res.set("cpu_ns_per_record", median(cpuPerRec), "ns", len(cpuPerRec))
	res.set("rss_mb", median(rss), "MB", len(rss))
	res.set("peak_rss_mb", median(peaks), "MB", len(peaks))
	res.set("catchup_records_per_s", median(catchup), "1/s", len(catchup))
	res.set("restart_s", median(restart), "s", len(restart))
	res.set("shutdown_s", median(shutdown), "s", len(shutdown))
	res.set("sut_cpu_s", median(cpus), "s", len(cpus))
	res.sample("restart_s", restart)
	res.sample("catchup_records_per_s", catchup)
	res.sample("cpu_ns_per_record", cpuPerRec)
	res.sample("rss_mb", rss)
	res.sample("peak_rss_mb", peaks)
	res.sample("shutdown_s", shutdown)
	res.scale(rn.speed, "setup_s", "answer_p50_ms", "records_per_s", "cpu_ns_per_record")
	if rn.trace {
		res.layer("astrad.listen_s", median(listens), "s", len(listens))
		res.layer("astrad.state_bytes", float64(stateBytes), "count", 1)
		return rn.replayRestart(ctx, res, text, rel, want)
	}
	return nil
}
