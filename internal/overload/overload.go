// Package overload is the admission-control layer of the online
// subsystem: the machinery that lets astrad survive the moments the
// paper's operators need it most — fleet-wide incidents, when ingest
// bursts and dashboard traffic spike together and a monitoring pipeline
// that falls over is worse than no monitoring at all.
//
// It provides two primitives:
//
//   - Queue, a bounded admission queue with high/low watermark
//     hysteresis and explicit shed policies (reject new work, or drop
//     the oldest queued work). Every record refused admission is
//     counted, never silently lost: at any quiescent point the books
//     balance exactly — offered == drained + depth + shed.
//
//   - Breaker, a circuit breaker for flaky or stalling dependencies
//     (astrad wraps checkpoint writes with one, so a sick disk degrades
//     checkpoint cadence instead of wedging ingest).
//
// The queue sits between the syslog follower and the stream engine. The
// scanner goroutine Offers records, singly or in batches; a drainer
// goroutine Takes batches and feeds the engine; the checkpoint path uses
// Freeze to observe a consistent (engine records + queued records)
// snapshot without ever blocking Offer behind a disk write.
package overload

import (
	"errors"
	"fmt"
	"sync"
)

// Policy selects what a saturated queue sheds.
type Policy int

const (
	// PolicyReject refuses new records while the queue is saturated: the
	// freshest data is lost, the backlog already admitted is preserved.
	PolicyReject Policy = iota
	// PolicyDropOldest evicts the oldest queued record to admit the new
	// one: the backlog is lost record by record, the freshest data is
	// preserved (the right choice when the consumer cares about "now").
	PolicyDropOldest
)

// String renders the policy in its flag form.
func (p Policy) String() string {
	switch p {
	case PolicyReject:
		return "reject"
	case PolicyDropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the flag form produced by String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reject":
		return PolicyReject, nil
	case "drop-oldest":
		return PolicyDropOldest, nil
	}
	return 0, fmt.Errorf("overload: unknown shed policy %q (want reject or drop-oldest)", s)
}

// Config tunes a Queue.
type Config struct {
	// Capacity is the hard bound on queued records (required, > 0).
	Capacity int
	// High and Low are the saturation watermarks: reaching High enters
	// the shedding state, and the queue stays shedding until depth falls
	// back to Low (hysteresis, so admission does not flap at the
	// boundary). 0 means High = Capacity and Low = Capacity/2.
	High, Low int
	// Policy selects what saturation sheds.
	Policy Policy
	// OnShed, when set, is called with the count of each shed (from
	// Offer, synchronously, after the queue lock is released) so the
	// consumer's accounting — e.g. the stream engine's Degraded
	// bookkeeping — sees every lost record. It must not call back into
	// the queue.
	OnShed func(n int)
}

// QueueStats is a point-in-time view of the queue's accounting.
//
// The books always balance: Offered == Admitted + Rejected, and
// Offered == Drained + Depth + Shed (Shed = Rejected + Evicted; items
// handed to a Take in flight count as Drained).
type QueueStats struct {
	// Offered counts every record presented to Offer.
	Offered uint64 `json:"offered"`
	// Admitted counts records accepted into the queue (some may later be
	// evicted under PolicyDropOldest).
	Admitted uint64 `json:"admitted"`
	// Drained counts records handed to the consumer via Take.
	Drained uint64 `json:"drained"`
	// Rejected counts records refused at admission; Evicted counts
	// admitted records dropped to make room under PolicyDropOldest.
	// Shed is their sum: every record lost to overload.
	Rejected uint64 `json:"rejected"`
	Evicted  uint64 `json:"evicted"`
	Shed     uint64 `json:"shed"`
	// Depth is the current queue depth; Capacity/High/Low echo the
	// effective configuration.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	High     int `json:"high"`
	Low      int `json:"low"`
	// Saturated reports the shedding state; Saturations counts how many
	// times it has been entered.
	Saturated   bool   `json:"saturated"`
	Saturations uint64 `json:"saturations"`
}

// Queue is a bounded admission queue with watermark hysteresis and
// explicit shed policies. Offer never blocks on the consumer: when the
// queue is saturated it sheds per policy and accounts for the loss.
// Safe for concurrent use by one or more producers, one drainer, and
// any number of Stats/Freeze observers.
type Queue[T any] struct {
	mu    sync.Mutex
	avail *sync.Cond // items queued, or closed
	idle  *sync.Cond // no Take in flight

	cfg Config

	// buf is the ring. It starts small and doubles when full, up to
	// cfg.Capacity, so its memory follows the deepest backlog seen
	// rather than the bound.
	buf  []T
	head int
	n    int

	saturated bool
	draining  bool
	closed    bool

	offered, admitted, drained uint64
	rejected, evicted          uint64
	saturations                uint64
}

// effective fills in the watermark defaults and reports a configuration
// no queue can hold: a non-positive capacity, or a low watermark not
// below the high one.
func (c Config) effective() (Config, error) {
	if c.Capacity <= 0 {
		return c, errors.New("overload: queue capacity must be positive")
	}
	if c.High <= 0 || c.High > c.Capacity {
		c.High = c.Capacity
	}
	if c.Low <= 0 {
		c.Low = c.Capacity / 2
	}
	if c.Low >= c.High {
		return c, fmt.Errorf("overload: low watermark %d must be below high watermark %d", c.Low, c.High)
	}
	return c, nil
}

// Validate reports the configuration errors NewQueue panics on, so a
// caller taking the settings from an operator can refuse them first.
func (c Config) Validate() error {
	_, err := c.effective()
	return err
}

// NewQueue builds a queue; it panics on a configuration Validate rejects
// (a misconfigured admission layer is a programming error, not a runtime
// condition).
func NewQueue[T any](cfg Config) *Queue[T] {
	cfg, err := cfg.effective()
	if err != nil {
		panic(err.Error())
	}
	q := &Queue[T]{cfg: cfg, buf: make([]T, min(cfg.Capacity, minRing))}
	q.avail = sync.NewCond(&q.mu)
	q.idle = sync.NewCond(&q.mu)
	return q
}

// Offer presents one record for admission. It returns false when the
// record was shed (queue saturated under PolicyReject, or queue closed);
// under PolicyDropOldest it returns true but may have evicted an older
// record to make room. Every shed — either kind — is counted and
// reported to Config.OnShed.
func (q *Queue[T]) Offer(v T) bool {
	q.mu.Lock()
	admitted, shed := q.offerLocked(v)
	if admitted {
		q.avail.Signal()
	}
	q.mu.Unlock()
	q.noteShed(shed)
	return admitted
}

// OfferBatch presents vs for admission in order and returns how many were
// admitted. Every admission, shed and hysteresis decision is the one
// len(vs) Offer calls would make, but the batch takes the lock once,
// wakes the drainer once and reports its sheds to Config.OnShed in one
// call.
func (q *Queue[T]) OfferBatch(vs []T) int {
	admitted, shed := 0, 0
	q.mu.Lock()
	for _, v := range vs {
		a, s := q.offerLocked(v)
		if a {
			admitted++
		}
		shed += s
	}
	if admitted > 0 {
		q.avail.Signal()
	}
	q.mu.Unlock()
	q.noteShed(shed)
	return admitted
}

// offerLocked decides one record's admission under the lock: whether it
// was admitted, and how many records that decision shed (the record
// itself, or the oldest one it evicted).
func (q *Queue[T]) offerLocked(v T) (admitted bool, shed int) {
	q.offered++
	if q.closed {
		q.rejected++
		return false, 1
	}
	// Hysteresis: enter shedding at High, leave at Low.
	if !q.saturated && q.n >= q.cfg.High {
		q.saturated = true
		q.saturations++
	} else if q.saturated && q.n <= q.cfg.Low {
		q.saturated = false
	}
	if q.saturated || q.n >= q.cfg.Capacity {
		if q.cfg.Policy == PolicyReject || q.n == 0 {
			q.rejected++
			return false, 1
		}
		// PolicyDropOldest: evict the head, admit the newcomer.
		var zero T
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.evicted++
		q.push(v)
		return true, 1
	}
	q.push(v)
	return true, 0
}

// minRing is the initial ring size.
const minRing = 64

// push appends under the lock; the caller wakes the drainer.
func (q *Queue[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.admitted++
}

// grow doubles the full ring, up to Capacity, and unwraps it so the
// head is at index 0. Offer admits only below Capacity, so a full ring
// is always smaller than the bound.
func (q *Queue[T]) grow() {
	buf := make([]T, min(2*len(q.buf), q.cfg.Capacity))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func (q *Queue[T]) noteShed(n int) {
	if q.cfg.OnShed != nil && n > 0 {
		q.cfg.OnShed(n)
	}
}

// Take blocks until records are queued (or the queue closes), then
// removes and returns up to max of them in arrival order (max <= 0
// means all). ok is false only when the queue is closed and empty —
// the drainer's termination signal. A Take that returns records marks
// the queue draining until Done is called; Freeze waits for that, so
// a frozen snapshot never misses records the drainer holds but has not
// finished applying.
func (q *Queue[T]) Take(max int) (batch []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.avail.Wait()
	}
	if q.n == 0 {
		return nil, false
	}
	k := q.n
	if max > 0 && k > max {
		k = max
	}
	batch = make([]T, k)
	var zero T
	for i := 0; i < k; i++ {
		batch[i] = q.buf[q.head]
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
	}
	q.n -= k
	q.drained += uint64(k)
	if q.saturated && q.n <= q.cfg.Low {
		q.saturated = false
	}
	q.draining = true
	return batch, true
}

// Done marks the batch from the last Take fully applied, releasing any
// Freeze waiting on drain quiescence.
func (q *Queue[T]) Done() {
	q.mu.Lock()
	q.draining = false
	q.idle.Broadcast()
	q.mu.Unlock()
}

// Close refuses further admissions. The drainer keeps Taking until the
// queue is empty, then Take reports ok=false. Offers after Close are
// counted as rejected sheds.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.avail.Broadcast()
	q.mu.Unlock()
}

// Freeze waits until no drained batch is in flight, then calls fn with
// the queued records in arrival order and the accounting as of that
// instant, while holding the queue locked — no Offer, Take, or eviction
// can interleave. Because the drainer is quiescent for the duration,
// state derived inside fn from the consumer (e.g. the stream engine's
// record list) plus the queued records is an exact prefix-consistent
// snapshot of everything admitted, and st.Shed is the matching loss
// count. fn must be fast — it stalls admission — and must not call back
// into the queue; do I/O outside.
func (q *Queue[T]) Freeze(fn func(queued []T, st QueueStats)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.draining {
		q.idle.Wait()
	}
	snap := make([]T, q.n)
	for i := 0; i < q.n; i++ {
		snap[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	fn(snap, q.statsLocked())
}

// Depth returns the current queue depth.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Stats returns the queue's accounting.
func (q *Queue[T]) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.statsLocked()
}

func (q *Queue[T]) statsLocked() QueueStats {
	return QueueStats{
		Offered:     q.offered,
		Admitted:    q.admitted,
		Drained:     q.drained,
		Rejected:    q.rejected,
		Evicted:     q.evicted,
		Shed:        q.rejected + q.evicted,
		Depth:       q.n,
		Capacity:    q.cfg.Capacity,
		High:        q.cfg.High,
		Low:         q.cfg.Low,
		Saturated:   q.saturated,
		Saturations: q.saturations,
	}
}

// Status bundles the admission layer's observable state for /healthz
// and /metrics: the queue's accounting plus the checkpoint breaker's.
type Status struct {
	Queue   QueueStats   `json:"queue"`
	Breaker BreakerStats `json:"breaker"`
}
