package stream_test

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/topology"
)

// BenchmarkStreamIngest measures the hot ingest path: records/s and
// allocs/record for one-at-a-time ingest into a warmed engine (the
// daemon's steady state — every bank, word and node already known).
//
//	go test -run '^$' -bench StreamIngest -benchmem ./internal/stream
func BenchmarkStreamIngest(b *testing.B) {
	ds := fixture(b)
	recs := ds.CERecords
	if len(recs) == 0 {
		b.Fatal("empty fixture")
	}
	e := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	e.IngestBatch(recs) // warm the fault population
	e.Summary()         // classify everything once

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest(recs[i%len(recs)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkStreamIngestBatch measures micro-batched ingest (the daemon's
// catch-up mode and its restore): the whole fixture in one batch.
func BenchmarkStreamIngestBatch(b *testing.B) {
	recs := fixture(b).CERecords
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := stream.New(stream.Config{})
		e.IngestBatch(recs)
		e.Summary()
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkStreamSnapshot measures the full-fault-list query against a
// warm engine with a clean cache (the serving path's worst read).
func BenchmarkStreamSnapshot(b *testing.B) {
	ds := fixture(b)
	e := stream.New(stream.Config{})
	e.IngestBatch(ds.CERecords)
	e.Summary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := e.Snapshot(); len(fs) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
