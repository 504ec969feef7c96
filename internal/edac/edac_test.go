package edac

import (
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	r := NewRing[int](3)
	for i := 0; i < 5; i++ {
		kept := r.Offer(i)
		if (i < 3) != kept {
			t.Errorf("Offer(%d) kept = %v", i, kept)
		}
	}
	if r.Len() != 3 || r.Offered() != 5 || r.Dropped() != 2 {
		t.Errorf("ring state: len=%d offered=%d dropped=%d", r.Len(), r.Offered(), r.Dropped())
	}
	got := r.view()
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("view = %v", got)
	}
	r.reset()
	if r.Len() != 0 {
		t.Error("ring not empty after drain")
	}
	// Space reopens after drain.
	if !r.Offer(9) {
		t.Error("offer after drain should succeed")
	}
}

func TestRingConservation(t *testing.T) {
	// Property: drained + dropped == offered, and no phantom records.
	f := func(ops []uint8) bool {
		r := NewRing[uint8](4)
		var drained uint64
		for _, op := range ops {
			if op%5 == 0 {
				drained += uint64(len(r.view()))
				r.reset()
			} else {
				r.Offer(op)
			}
		}
		drained += uint64(len(r.view()))
		return drained+r.Dropped() == r.Offered()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing[int](0)
}

func TestPollerDrainsPerInterval(t *testing.T) {
	var batches [][]int
	p := NewPoller[int](10, 60, func(recs []int) {
		batch := append([]int(nil), recs...)
		batches = append(batches, batch)
	})
	// Two records in minute 0, one in minute 1.
	p.Offer(5, 100)
	p.Offer(30, 101)
	p.Offer(65, 102)
	stats := p.Close()
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	if len(batches[0]) != 2 || len(batches[1]) != 1 {
		t.Errorf("batch sizes: %v", batches)
	}
	if stats.Offered != 3 || stats.Logged != 3 || stats.Dropped != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPollerDropsBursts(t *testing.T) {
	logged := 0
	p := NewPoller[int](4, 60, func(recs []int) { logged += len(recs) })
	// A burst of 10 in one interval: only 4 survive.
	for i := 0; i < 10; i++ {
		p.Offer(int64(i), i)
	}
	// Next interval: space reopens.
	p.Offer(61, 99)
	stats := p.Close()
	if logged != 5 {
		t.Errorf("logged = %d, want 5", logged)
	}
	if stats.Dropped != 6 || stats.Offered != 11 {
		t.Errorf("stats = %+v", stats)
	}
	if lf := stats.LossFraction(); lf < 0.5 || lf > 0.6 {
		t.Errorf("LossFraction = %v", lf)
	}
}

func TestPollerReordersWithinSlack(t *testing.T) {
	// A record one interval late (default slack) folds into the current
	// buffer instead of panicking or being lost.
	var logged []int
	p := NewPoller[int](4, 60, func(recs []int) { logged = append(logged, recs...) })
	p.Offer(120, 1) // minute 2
	p.Offer(70, 2)  // minute 1: one interval late — accepted
	stats := p.Close()
	if len(logged) != 2 {
		t.Errorf("logged = %v, want both records", logged)
	}
	if stats.Reordered != 1 || stats.DroppedOutOfOrder != 0 {
		t.Errorf("stats = %+v, want Reordered 1", stats)
	}
	if stats.Logged+stats.Dropped != stats.Offered {
		t.Errorf("accounting imbalance: %+v", stats)
	}
}

func TestPollerDropsBeyondSlack(t *testing.T) {
	var logged []int
	p := NewPoller[int](4, 60, func(recs []int) { logged = append(logged, recs...) })
	p.Offer(300, 1) // minute 5
	p.Offer(30, 2)  // minute 0: four intervals late — dropped
	stats := p.Close()
	if len(logged) != 1 || logged[0] != 1 {
		t.Errorf("logged = %v, want just the in-order record", logged)
	}
	if stats.DroppedOutOfOrder != 1 || stats.Reordered != 0 {
		t.Errorf("stats = %+v, want DroppedOutOfOrder 1", stats)
	}
	// The late record never reached the ring, so the loss balance holds.
	if stats.Offered != 1 || stats.Logged+stats.Dropped != stats.Offered {
		t.Errorf("accounting imbalance: %+v", stats)
	}
}

func TestPollerZeroSlackStrictOrdering(t *testing.T) {
	p := NewPoller[int](4, 60, func([]int) {})
	p.slack = 0
	p.Offer(120, 1)
	p.Offer(70, 2) // one interval late: dropped under zero slack
	if stats := p.Close(); stats.DroppedOutOfOrder != 1 {
		t.Errorf("stats = %+v, want DroppedOutOfOrder 1", stats)
	}
}

func TestPollerConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPoller[int](4, 0, func([]int) {}) },
		func() { NewPoller[int](4, 60, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStatsLossFractionEmpty(t *testing.T) {
	if (Stats{}).LossFraction() != 0 {
		t.Error("empty stats should report zero loss")
	}
}
