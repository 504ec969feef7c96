package stats

import (
	"testing"
	"time"
)

var windowEpoch = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return windowEpoch.Add(d) }

func atNano(d time.Duration) int64 { return at(d).UnixNano() }

func TestRateWindowBasic(t *testing.T) {
	var w RateWindow
	w.Init(time.Minute, 6) // 10s buckets
	for i := 0; i < 5; i++ {
		w.AddNano(atNano(time.Duration(i) * 10 * time.Second))
	}
	if got := w.Count(at(40 * time.Second)); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	// Advance just past the window: the first event's bucket expires.
	if got := w.Count(at(61 * time.Second)); got != 4 {
		t.Fatalf("Count after expiry = %d, want 4", got)
	}
	if c, r := w.CountRate(at(61 * time.Second)); c != 4 || r != 4.0/60.0 {
		t.Fatalf("CountRate = %d, %v, want 4, %v", c, r, 4.0/60.0)
	}
}

func TestRateWindowOutOfOrderWithinWindow(t *testing.T) {
	var w RateWindow
	w.Init(time.Minute, 6)
	w.AddNano(atNano(50 * time.Second))
	w.AddNano(atNano(10 * time.Second)) // late but within window
	if got := w.Count(at(50 * time.Second)); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestRateWindowDropsTooLate(t *testing.T) {
	var w RateWindow
	w.Init(time.Minute, 6)
	w.AddNano(atNano(10 * time.Minute))
	w.AddNano(atNano(0)) // far behind the trailing edge
	if got := w.Count(at(10 * time.Minute)); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestRateWindowLongGapClears(t *testing.T) {
	var w RateWindow
	w.Init(time.Minute, 6)
	for i := 0; i < 10; i++ {
		w.AddNano(atNano(time.Duration(i) * time.Second))
	}
	w.AddNano(atNano(time.Hour))
	if got := w.Count(at(time.Hour)); got != 1 {
		t.Fatalf("Count after gap = %d, want 1", got)
	}
}

// TestRateWindowMatchesNaive cross-checks the ring against a brute-force
// count at bucket granularity over a pseudo-random event sequence.
func TestRateWindowMatchesNaive(t *testing.T) {
	const buckets = 8
	window := 80 * time.Second // 10s buckets
	var w RateWindow
	w.Init(window, buckets)
	var events []time.Time
	var maxSeen time.Time
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 500; i++ {
		// Mostly forward, occasionally backward in time.
		step := time.Duration(next()%20) * time.Second
		tm := maxSeen.Add(step)
		if maxSeen.IsZero() {
			tm = at(0)
		} else if next()%5 == 0 {
			back := time.Duration(next()%100) * time.Second
			tm = maxSeen.Add(-back)
		}
		if tm.After(maxSeen) {
			maxSeen = tm
		}
		w.AddNano(tm.UnixNano())
		events = append(events, tm)

		// Naive recount at bucket granularity: events in buckets
		// (headBucket-buckets, headBucket], excluding any event that was
		// too late at the moment it was added (dropped, never counted).
		headBucket := maxSeen.UnixNano() / int64(10*time.Second)
		seen := maxSeen
		naive := 0
		cursorMax := time.Time{}
		for _, e := range events {
			if e.After(cursorMax) {
				cursorMax = e
			}
			eb := e.UnixNano() / int64(10*time.Second)
			curHead := cursorMax.UnixNano() / int64(10*time.Second)
			if eb <= curHead-buckets {
				continue // dropped as late on arrival
			}
			if eb > headBucket-buckets && eb <= headBucket {
				naive++
			}
		}
		if got := w.Count(seen); got != naive {
			t.Fatalf("step %d: Count = %d, naive = %d", i, got, naive)
		}
	}
}

func TestRateWindowAddNoAlloc(t *testing.T) {
	var w RateWindow
	w.Init(time.Minute, 60)
	tm := at(0)
	n := testing.AllocsPerRun(1000, func() {
		tm = tm.Add(time.Second)
		w.AddNano(tm.UnixNano())
	})
	if n != 0 {
		t.Fatalf("AddNano allocates %v per call", n)
	}
}
