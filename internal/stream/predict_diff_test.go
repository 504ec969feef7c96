package stream_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/topology"
)

// TestFeaturesStreamMatchesBatchParallel is the prediction-layer
// differential: per-bank feature vectors accumulated incrementally by
// the stream engine over random micro-batches are bit-identical
// (reflect.DeepEqual on float64 fields, no tolerance) to a batch
// predict.Tracker replay of the same records, and so are the vectors a
// view carries. This holds by construction, not coincidence:
// FeatureState has no merge operation, so every batch schedule applies
// the same Observe sequence per bank; the test pins the construction.
func TestFeaturesStreamMatchesBatchParallel(t *testing.T) {
	ds := fixture(t)
	records := ds.CERecords
	dimms := 48 * topology.SlotsPerNode

	// Batch reference: one Tracker over the records in order.
	tr := predict.NewTracker(predict.TrackerConfig{
		Window:      stream.DefaultWindow,
		RateBuckets: stream.DefaultRateBuckets,
	})
	for i := range records {
		tr.Observe(&records[i])
	}
	want := tr.Features(tr.Last())
	if len(want) == 0 {
		t.Fatal("fixture produced no banks")
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := stream.New(stream.Config{DIMMs: dimms})
		for lo := 0; lo < len(records); {
			hi := min(lo+1+rng.Intn(513), len(records))
			e.IngestBatch(records[lo:hi])
			lo = hi
		}
		if got := e.Features(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: engine features diverge from batch tracker (%d vs %d banks)", seed, len(got), len(want))
		}
		if got := e.LiveView().Banks(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: view banks diverge from batch tracker", seed)
		}
	}
}

// TestFeaturesRiskRankingDeterminism: scoring and ranking the streamed
// features is reproducible and ordered (desc score, FirstIdx
// tie-break) — what the /v1/atrisk endpoint serves.
func TestFeaturesRiskRankingDeterminism(t *testing.T) {
	ds := fixture(t)
	eng := stream.New(stream.Config{})
	eng.IngestBatch(ds.CERecords)

	p := predict.DefaultRuleLadder()
	bf := eng.Features()
	s1 := predict.SortByRisk(bf, p)
	bf2 := eng.Features()
	s2 := predict.SortByRisk(bf2, p)
	if !reflect.DeepEqual(bf, bf2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("repeated feature extraction + ranking not reproducible")
	}
	for i := 1; i < len(bf); i++ {
		if s1[i] > s1[i-1] {
			t.Fatalf("ranking not descending at %d: %v after %v", i, s1[i], s1[i-1])
		}
		if s1[i] == s1[i-1] && bf[i].FirstIdx < bf[i-1].FirstIdx {
			t.Fatalf("tie at %d not broken by FirstIdx", i)
		}
	}
	any := false
	for _, s := range s1 {
		if s > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no bank scored above zero on the fixture")
	}
}
