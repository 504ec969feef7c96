package stream

import (
	"testing"
	"time"

	"repro/internal/mce"
)

// TestLiveViewNeverWaitsForIngest pins the contract the HTTP layer is
// built on: while an ingest batch holds the engine mutex, LiveView
// returns the previous view at once instead of waiting the batch out.
// A regression fails on the timeout rather than hanging the suite.
func TestLiveViewNeverWaitsForIngest(t *testing.T) {
	e := New(Config{DIMMs: 8})
	e.Ingest(mce.CERecord{Time: time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC), Node: 3, Slot: 1, Bank: 2})
	prev := e.LiveView()

	e.mu.Lock() // what IngestBatch holds for a whole batch
	e.NoteShed(1)
	if e.Seq() == prev.Seq {
		e.mu.Unlock()
		t.Fatal("NoteShed did not advance Seq")
	}
	got := make(chan *View, 1)
	go func() { got <- e.LiveView() }()
	select {
	case v := <-got:
		e.mu.Unlock()
		if v != prev {
			t.Fatalf("LiveView under the ingest lock returned a new view (seq %d), want the previous one (seq %d)", v.Seq, prev.Seq)
		}
	case <-time.After(10 * time.Second):
		e.mu.Unlock()
		t.Fatal("LiveView blocked behind the ingest lock")
	}

	if v := e.LiveView(); v == prev || v.Seq != e.Seq() || v.Summary.Shed != 1 {
		t.Fatalf("view after the batch: seq %d shed %d, want a fresh view at seq %d with shed 1", v.Seq, v.Summary.Shed, e.Seq())
	}
}
