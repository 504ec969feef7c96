package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call (per call or per batch, never per record). Agg holds
// per-record sub-timings summed over the span, e.g. the admission
// queue's Offer inside a scan batch; they count as the span's children.
type span struct {
	Name   string           `json:"name"`
	Trace  int              `json:"trace"`
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Lane   string           `json:"lane"`
	Start  int64            `json:"startNs"`
	End    int64            `json:"endNs"`
	Agg    map[string]int64 `json:"agg,omitempty"`
}

// lane is one goroutine of a traced pipeline, or one batch pass: its
// spans plus an unattributed remainder add up to its wall time.
type lane struct {
	Name  string `json:"name"`
	Trace int    `json:"trace"`
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
	gid   uint64
	open  []int // stack of open span ids
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced passes run the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	lanes []*lane
	calls atomic.Int64 // clock reads made for tracing
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 {
	r.calls.Add(1)
	return int64(time.Since(r.t0))
}

// startLane registers the calling goroutine as a lane of trace id.
func (r *recorder) startLane(name string, trace int) *lane {
	if r == nil {
		return nil
	}
	l := &lane{Name: name, Trace: trace, Start: r.now(), gid: goid()}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// endLane closes the lane's wall-clock window.
func (r *recorder) endLane(l *lane) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	l.End = end
	r.mu.Unlock()
}

// do runs fn inside a span named name on lane l.
func (r *recorder) do(l *lane, name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.open(l, name)
	fn()
	r.close(l, id, nil)
}

// open starts a span on l, nested in l's innermost open span.
func (r *recorder) open(l *lane, name string) int {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{Name: name, Trace: l.Trace, ID: len(r.spans) + 1, Lane: l.Name, Start: start}
	if n := len(l.open); n > 0 {
		s.Parent = l.open[n-1]
	}
	r.spans = append(r.spans, s)
	l.open = append(l.open, s.ID)
	return s.ID
}

// close ends span id, attaching summed per-record sub-timings.
func (r *recorder) close(l *lane, id int, agg map[string]int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end
	r.spans[id-1].Agg = agg
	l.open = l.open[:len(l.open)-1]
}

// laneOf finds the lane the calling goroutine registered, for spans
// recorded inside a layer that does not pass the caller along (the
// serve layer calls Source.LiveView on the request's goroutine).
func (r *recorder) laneOf() *lane {
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.lanes) - 1; i >= 0; i-- {
		if r.lanes[i].gid == g && r.lanes[i].End == 0 {
			return r.lanes[i]
		}
	}
	return nil
}

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// ledger is the per-layer account of one trace: self time by span name
// (a span's duration minus its children's), and per lane the wall time,
// the span-covered time and the unattributed remainder.
type ledger struct {
	self  map[string]time.Duration
	calls map[string]int
	durs  map[string][]time.Duration // per-call durations, for percentiles
	lanes []laneAccount
}

type laneAccount struct {
	name         string
	wall, spans  time.Duration
	unattributed time.Duration
}

// account builds the ledger of trace id. It fails when a lane's spans
// cover more than its wall time (overlapping or mis-nested spans) or a
// span is left open, which would break the invariant that spans plus
// unattributed time sum to the wall time.
func (r *recorder) account(trace int) (*ledger, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lg := &ledger{self: map[string]time.Duration{}, calls: map[string]int{}, durs: map[string][]time.Duration{}}
	child := map[int]int64{}
	for _, s := range r.spans {
		if s.Trace != trace {
			continue
		}
		if s.End == 0 {
			return nil, fmt.Errorf("span %s left open", s.Name)
		}
		var agg int64
		for name, ns := range s.Agg {
			agg += ns
			lg.self[name] += time.Duration(ns)
		}
		child[s.ID] += agg
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	top := map[string]int64{}
	for _, s := range r.spans {
		if s.Trace != trace {
			continue
		}
		d := s.End - s.Start
		lg.self[s.Name] += time.Duration(d - child[s.ID])
		lg.calls[s.Name]++
		lg.durs[s.Name] = append(lg.durs[s.Name], time.Duration(d))
		if s.Parent == 0 {
			top[s.Lane] += d
		}
	}
	for _, l := range r.lanes {
		if l.Trace != trace {
			continue
		}
		wall := time.Duration(l.End - l.Start)
		covered := time.Duration(top[l.Name])
		if covered > wall+time.Millisecond {
			return nil, fmt.Errorf("lane %s: spans cover %v of a %v wall", l.Name, covered, wall)
		}
		lg.lanes = append(lg.lanes, laneAccount{l.Name, wall, covered, wall - covered})
	}
	sort.Slice(lg.lanes, func(i, j int) bool { return lg.lanes[i].name < lg.lanes[j].name })
	return lg, nil
}

// unattributed sums the lanes' unattributed remainders.
func (lg *ledger) unattributed() time.Duration {
	var d time.Duration
	for _, l := range lg.lanes {
		d += l.unattributed
	}
	return d
}

// pct is the p-quantile of a span name's per-call durations in ms.
func (lg *ledger) pct(name string, p float64) float64 {
	ds := lg.durs[name]
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, p)
}

// clockCost measures what one traced clock read costs, for the tracing
// overhead estimate (clock reads made x cost per read).
func clockCost() time.Duration {
	r := newRecorder()
	const n = 200_000
	start := time.Now()
	for i := 0; i < n; i++ {
		r.now()
	}
	return time.Since(start) / n
}

// writeTrace writes every recorded span and lane as JSON.
func (r *recorder) writeTrace(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Lanes []*lane `json:"lanes"`
		Spans []span  `json:"spans"`
	}{r.lanes, r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
