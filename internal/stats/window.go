package stats

import "time"

// RateWindow counts events in a trailing time window using a ring of
// fixed-width buckets, the standard streaming estimator: AddNano is O(1)
// and allocation-free after Init, and Count/CountRate answer "how many in
// the last W" at bucket resolution. The stream engine keeps one per node
// (and one global) to expose live CE rates without rescanning history.
//
// Time is event time, not wall time: the window advances with the largest
// timestamp added, so replaying a historical log produces the same
// answers the live system would have given. Events earlier than the
// window's trailing edge are dropped; events within
// the window but out of order land in their proper bucket.
//
// The ring is sized to the next power of two above the bucket count and
// each slot remembers the absolute bucket index it last held, so
// advancing the head is a single assignment — no per-bucket zeroing loop,
// even across gaps far longer than the window. Stale slots are ignored by
// range checks and recycled in place on their next write. This matters at
// ingest rates of millions of records/s with thousands of sparse per-node
// windows: the old eager-expiry ring spent most of its time clearing
// buckets that nothing would ever read.
//
// The zero value is unusable; call Init first. RateWindow is not
// concurrency-safe.
type RateWindow struct {
	bucket  time.Duration
	buckets int // logical window length, in buckets
	mask    int64
	// slots[s].abs is the absolute bucket index (unix time / bucket
	// width) slot s currently holds; a slot is live iff its index lies in
	// (headIdx-buckets, headIdx].
	slots []windowSlot
	// headIdx is the absolute bucket index of the newest bucket.
	headIdx int64
	started bool
	// memoStart/memoEnd bound the bucket of the last AddNano: event streams
	// arrive in near-sorted order, so consecutive events usually share a
	// bucket and the division in idx() is skipped. The interval starts
	// empty (start == end) so an unprimed memo never hits.
	memoStart int64
	memoEnd   int64
	memoIdx   int64
}

// windowSlot is one ring bucket: the absolute bucket index it holds and
// its event count, adjacent so an AddNano touches one cache line.
type windowSlot struct {
	abs int64
	n   int
}

// Init (re)initializes a RateWindow in place over a trailing window of
// the given length, resolved into buckets slots (minimum 1). The
// effective window is buckets whole bucket-widths, so window should be a
// multiple of buckets for exact semantics. The stream engine embeds the
// estimator by value, one per node, and avoids a pointer allocation each.
func (w *RateWindow) Init(window time.Duration, buckets int) {
	if buckets < 1 {
		buckets = 1
	}
	if window <= 0 {
		window = time.Minute
	}
	b := window / time.Duration(buckets)
	if b <= 0 {
		b = 1
	}
	ring := 1
	for ring < buckets {
		ring <<= 1
	}
	*w = RateWindow{
		bucket:  b,
		buckets: buckets,
		mask:    int64(ring - 1),
		slots:   make([]windowSlot, ring),
	}
}

// Window returns the effective trailing window length.
func (w *RateWindow) Window() time.Duration {
	return w.bucket * time.Duration(w.buckets)
}

func (w *RateWindow) idx(nano int64) int64 {
	if nano >= w.memoStart && nano < w.memoEnd {
		return w.memoIdx
	}
	abs := nano / int64(w.bucket)
	w.memoIdx = abs
	w.memoStart = abs * int64(w.bucket)
	w.memoEnd = w.memoStart + int64(w.bucket)
	return abs
}

// AddNano records one event at unix-nanosecond time nano, advancing the
// window if it is the newest time seen; events that precede the retained
// window are dropped. The stream engine feeds two windows per record and
// converts the time once.
func (w *RateWindow) AddNano(nano int64) {
	abs := w.idx(nano)
	if !w.started {
		w.started = true
		w.headIdx = abs
	}
	switch {
	case abs > w.headIdx:
		w.headIdx = abs
	case abs <= w.headIdx-int64(w.buckets):
		return
	}
	s := &w.slots[abs&w.mask]
	if s.abs != abs {
		s.abs = abs
		s.n = 1
		return
	}
	s.n++
}

// Count returns the number of events in the window ending at now. A now
// ahead of the newest event first expires the buckets that fall out of
// the window; a now at or before the newest event returns the full
// retained count.
func (w *RateWindow) Count(now time.Time) int {
	if !w.started {
		return 0
	}
	if abs := w.idx(now.UnixNano()); abs > w.headIdx {
		w.headIdx = abs
	}
	lo := w.headIdx - int64(w.buckets)
	total := 0
	for i := range w.slots {
		if s := &w.slots[i]; s.abs > lo && s.abs <= w.headIdx {
			total += s.n
		}
	}
	return total
}

// CountRate returns Count(now) and the events per second over the
// window ending at now.
func (w *RateWindow) CountRate(now time.Time) (int, float64) {
	c := w.Count(now)
	secs := w.Window().Seconds()
	if secs <= 0 {
		return c, 0
	}
	return c, float64(c) / secs
}
