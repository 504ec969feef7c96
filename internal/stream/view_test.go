package stream_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
	"repro/internal/topology"
)

func viewFixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig(71)
	cfg.Nodes = 32
	ds, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestViewMatchesDirectQueries pins the snapshot contract: a View must
// answer every query exactly as the engine's direct (mutex-taking)
// methods do at the same point.
func TestViewMatchesDirectQueries(t *testing.T) {
	ds := viewFixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)

	v := e.LiveView()
	if v.Seq != e.Seq() {
		t.Fatalf("fresh view seq %d != engine seq %d", v.Seq, e.Seq())
	}
	wantSum := e.Summary()
	if v.Summary != wantSum {
		t.Fatalf("view summary = %+v, want %+v", v.Summary, wantSum)
	}
	wantFaults := e.Snapshot()
	if len(v.Faults) != len(wantFaults) {
		t.Fatalf("view faults = %d, want %d", len(v.Faults), len(wantFaults))
	}
	for i := range wantFaults {
		if v.Faults[i].Node != wantFaults[i].Node || v.Faults[i].Mode != wantFaults[i].Mode ||
			v.Faults[i].NErrors != wantFaults[i].NErrors {
			t.Fatalf("view fault %d diverges from Snapshot", i)
		}
	}
	if v.FIT != e.WindowedFIT() {
		t.Fatalf("view FIT = %+v, want %+v", v.FIT, e.WindowedFIT())
	}
	for _, f := range wantFaults {
		got, ok := v.NodeStatus(f.Node)
		want, wok := e.NodeStatus(f.Node)
		if ok != wok || got.CEs != want.CEs || len(got.Faults) != len(want.Faults) ||
			got.WindowCount != want.WindowCount {
			t.Fatalf("view node %v = %+v/%v, want %+v/%v", f.Node, got, ok, want, wok)
		}
	}
	if _, ok := v.NodeStatus(topology.NewNodeID(0, 0, 0) - 1); ok {
		t.Fatal("view invented a node")
	}
	rates := v.FaultRates(32*topology.SlotsPerNode, 24*time.Hour)
	wantRates := e.FaultRates(24 * time.Hour)
	if rates != wantRates {
		t.Fatalf("view fault rates = %+v, want %+v", rates, wantRates)
	}
}

// TestViewCachingAndInvalidation: the same pointer is served while the
// engine is unchanged, and ingest invalidates it.
func TestViewCachingAndInvalidation(t *testing.T) {
	ds := viewFixture(t)
	e := stream.New(stream.Config{})
	half := len(ds.CERecords) / 2
	e.IngestBatch(ds.CERecords[:half])

	v1 := e.LiveView()
	if v2 := e.LiveView(); v2 != v1 {
		t.Fatal("unchanged engine rebuilt its view")
	}
	e.IngestBatch(ds.CERecords[half:])
	v3 := e.LiveView()
	if v3 == v1 {
		t.Fatal("ingest did not invalidate the view")
	}
	if v3.Summary.Records != len(ds.CERecords) {
		t.Fatalf("post-ingest view records = %d, want %d", v3.Summary.Records, len(ds.CERecords))
	}
	// A shed notification is a state change too: the degraded accounting
	// must reach the next view.
	e.NoteShed(3)
	v4 := e.LiveView()
	if v4 == v3 {
		t.Fatal("NoteShed did not invalidate the view")
	}
	if !v4.Summary.Degraded || v4.Summary.Shed != 3 ||
		v4.Summary.Offered != v4.Summary.Records+3 {
		t.Fatalf("shed view summary = %+v", v4.Summary)
	}
	if !v4.FIT.Degraded {
		t.Fatal("windowed FIT not degraded after shed")
	}
}

// TestViewConcurrentWithIngest races view readers and node queries
// against ingest batches (run under -race in make verify) and checks
// every served view is internally consistent — the fault list, summary
// and books are one cut — and that each reader's view Seq never goes
// backwards.
func TestViewConcurrentWithIngest(t *testing.T) {
	ds := viewFixture(t)
	e := stream.New(stream.Config{DIMMs: 32 * topology.SlotsPerNode})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(node topology.NodeID) {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := e.LiveView()
				if v.Seq < lastSeq {
					t.Errorf("view seq went backwards: %d then %d", lastSeq, v.Seq)
					return
				}
				lastSeq = v.Seq
				if v.Summary.Offered != v.Summary.Records+v.Summary.Shed {
					t.Error("view books do not balance")
					return
				}
				if v.Summary.Faults != len(v.Faults) {
					t.Errorf("view fault count %d != snapshot len %d",
						v.Summary.Faults, len(v.Faults))
					return
				}
				_, _ = e.NodeStatus(node)
			}
		}(ds.CERecords[r*len(ds.CERecords)/4].Node)
	}
	const step = 512
	for off := 0; off < len(ds.CERecords); off += step {
		end := off + step
		if end > len(ds.CERecords) {
			end = len(ds.CERecords)
		}
		e.IngestBatch(ds.CERecords[off:end])
	}
	close(stop)
	wg.Wait()

	// Once quiescent, the view converges to the batch answer.
	v := e.LiveView()
	want, err := core.Cluster(context.Background(), ds.CERecords, core.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Faults, want) {
		t.Fatalf("final view faults diverge from batch (%d vs %d faults)", len(v.Faults), len(want))
	}
}
