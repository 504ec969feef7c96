package predict

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestObserveFeaturesZeroAlloc pins the prediction layer's share of the
// stream engine's ingest hot path: once a pass has created every bank,
// FeatureState.Observe (the call the engine's per-record fold makes)
// allocates nothing per record.
func TestObserveFeaturesZeroAlloc(t *testing.T) {
	cfg := dataset.DefaultConfig(1)
	cfg.Nodes = 48
	ds, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The warm pass creates every bank; fs[i] is record i's bank state.
	tr := NewTracker(DefaultTrackerConfig())
	fs := make([]*FeatureState, len(ds.CERecords))
	for i := range ds.CERecords {
		fs[i] = &tr.Observe(&ds.CERecords[i]).FS
	}
	n := testing.AllocsPerRun(5, func() {
		for i := range ds.CERecords {
			fs[i].Observe(ds.CERecords[i].Time.UnixNano())
		}
	})
	if n != 0 {
		t.Errorf("warm FeatureState.Observe: %v allocs per %d records, want 0", n, len(ds.CERecords))
	}
}
