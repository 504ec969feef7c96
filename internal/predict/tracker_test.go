package predict

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestObserveFeaturesZeroAlloc pins the prediction layer's share of the
// stream engine's ingest hot path: once a pass has created every bank,
// ObserveFeatures allocates nothing per record.
func TestObserveFeaturesZeroAlloc(t *testing.T) {
	cfg := dataset.DefaultConfig(1)
	cfg.Nodes = 48
	ds, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(DefaultTrackerConfig())
	for i := range ds.CERecords {
		tr.Observe(&ds.CERecords[i])
	}
	n := testing.AllocsPerRun(5, func() {
		for i := range ds.CERecords {
			tr.ObserveFeatures(&ds.CERecords[i])
		}
	})
	if n != 0 {
		t.Errorf("warm ObserveFeatures: %v allocs per %d records, want 0", n, len(ds.CERecords))
	}
}
