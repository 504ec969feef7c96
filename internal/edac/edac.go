// Package edac models the kernel's correctable-error logging path (§2.3):
// the hardware logs CEs into a fixed-capacity internal buffer; once that
// space is full further CEs are dropped; the OS polls the buffer every few
// seconds and writes drained records to the syslog. Uncorrectable errors
// bypass this path and are (almost) never lost.
//
// The ring is the mechanism behind the paper's warning that raw error
// counts under-report bursty faults — one reason the fault/error
// distinction matters.
package edac

import "fmt"

// DefaultCapacity is the per-node CE log capacity used by the simulation:
// the ThunderX2 RAS logs hold on the order of tens of records.
const DefaultCapacity = 32

// Ring is a fixed-capacity CE log for one node. The zero value is unusable;
// construct with NewRing. Ring is not safe for concurrent use.
type Ring[T any] struct {
	buf     []T
	n       int
	offered uint64
	dropped uint64
}

// NewRing returns a ring holding at most capacity records. It panics if
// capacity <= 0.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("edac: invalid ring capacity %d", capacity))
	}
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Offer records one CE if space remains; otherwise the record is dropped
// and counted. It reports whether the record was kept.
func (r *Ring[T]) Offer(rec T) bool {
	r.offered++
	if r.n >= cap(r.buf) {
		r.dropped++
		return false
	}
	r.buf = append(r.buf, rec)
	r.n++
	return true
}

// view returns the buffered records without copying; reset empties the
// buffer afterwards. Together they are the ring's allocation-free drain
// (the OS poll) the Poller uses: the view is only valid until the next
// Offer.
func (r *Ring[T]) view() []T { return r.buf[:r.n] }

func (r *Ring[T]) reset() {
	r.buf = r.buf[:0]
	r.n = 0
}

// Len returns the number of buffered records.
func (r *Ring[T]) Len() int { return r.n }

// Offered returns the total number of records ever offered.
func (r *Ring[T]) Offered() uint64 { return r.offered }

// Dropped returns the total number of records lost to a full buffer.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Stats aggregates logging-loss accounting across nodes.
type Stats struct {
	Offered uint64
	Logged  uint64
	Dropped uint64
	// Reordered counts records that arrived with a time key earlier than
	// the current polling interval but within the reorder slack; they are
	// folded into the current interval's buffer rather than lost.
	Reordered uint64
	// DroppedOutOfOrder counts records too old for the reorder slack,
	// discarded before reaching the buffer (they appear in no other
	// counter, so Logged + Dropped == Offered still holds).
	DroppedOutOfOrder uint64
}

// Add accumulates another poller's counters (used when per-node pollers
// run on a worker pool and their stats are merged afterwards).
func (s *Stats) Add(o Stats) {
	s.Offered += o.Offered
	s.Logged += o.Logged
	s.Dropped += o.Dropped
	s.Reordered += o.Reordered
	s.DroppedOutOfOrder += o.DroppedOutOfOrder
}

// LossFraction returns the fraction of offered records that were dropped,
// or 0 when nothing was offered.
func (s Stats) LossFraction() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Offered)
}

// Poller simulates the per-node CE path over a time-ordered event stream:
// events offered within one polling interval share buffer space; each poll
// drains the buffer. Records are any type; the caller supplies the
// per-record interval key (for example the minute index).
type Poller[T any] struct {
	ring     *Ring[T]
	interval int64
	slack    int64
	cur      int64
	started  bool
	out      func([]T)
	stats    Stats
}

// DefaultReorderSlack is how many polling intervals late a record may
// arrive and still be accepted (folded into the current interval's
// buffer). Telemetry relays jitter by seconds, not minutes, so one
// interval of slack absorbs realistic skew.
const DefaultReorderSlack = 1

// NewPoller builds a poller draining every interval key units into out,
// tolerating records up to DefaultReorderSlack intervals late. It panics
// if interval <= 0 or out is nil.
//
// The slice passed to out borrows the poller's internal buffer: it is
// valid only for the duration of the callback, which must copy anything it
// keeps. This makes a poll flush allocation-free.
func NewPoller[T any](capacity int, interval int64, out func([]T)) *Poller[T] {
	if interval <= 0 {
		panic("edac: poll interval must be positive")
	}
	if out == nil {
		panic("edac: poller requires an output function")
	}
	return &Poller[T]{ring: NewRing[T](capacity), interval: interval, slack: DefaultReorderSlack, out: out}
}

// Offer feeds one record with its time key. Keys are expected to be
// non-decreasing (time-ordered stream); a record up to the reorder slack
// late is folded into the current interval's buffer and counted as
// Reordered, while anything older is discarded and counted as
// DroppedOutOfOrder — the intervals it belongs to have already been
// drained, so there is no correct buffer to place it in.
func (p *Poller[T]) Offer(key int64, rec T) {
	slot := key / p.interval
	if !p.started {
		p.cur = slot
		p.started = true
	}
	if slot < p.cur {
		if p.cur-slot > p.slack {
			p.stats.DroppedOutOfOrder++
			return
		}
		p.stats.Reordered++
		p.ring.Offer(rec)
		return
	}
	if slot > p.cur {
		p.flush()
		p.cur = slot
	}
	p.ring.Offer(rec)
}

// Close drains any remaining buffered records and returns the loss stats.
func (p *Poller[T]) Close() Stats {
	p.flush()
	p.stats.Offered = p.ring.Offered()
	p.stats.Dropped = p.ring.Dropped()
	p.stats.Logged = p.stats.Offered - p.stats.Dropped
	return p.stats
}

func (p *Poller[T]) flush() {
	if recs := p.ring.view(); len(recs) > 0 {
		p.out(recs)
	}
	p.ring.reset()
}
