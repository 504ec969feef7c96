// Package benchstage defines the pipeline-stage benchmark operations
// shared by cmd/astrabench (the `make bench` JSON writer) and the
// bench_pipeline_test.go suite. Each stage measures one pipeline layer —
// generation, dataset build, clustering, analysis, report rendering — at
// an explicit worker count, so the serial/parallel trajectory of every
// layer is tracked release to release.
package benchstage

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"

	astra "repro"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultmodel"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// DefaultNodes is the pinned system size `make bench` runs at unless
// ASTRA_BENCH_NODES overrides it.
const DefaultNodes = 256

// Nodes returns the benchmark system size: ASTRA_BENCH_NODES when set and
// valid, DefaultNodes otherwise.
func Nodes() int {
	if v := os.Getenv("ASTRA_BENCH_NODES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 && n <= astra.FullScale {
			return n
		}
	}
	return DefaultNodes
}

// Stage is one benchmarkable pipeline layer.
type Stage struct {
	// Name identifies the stage in benchmark output and BENCH_pipeline.json.
	Name string
	// Records is the number of records the stage processes per op (CE
	// events for generation, CE records for the downstream stages), the
	// denominator of records/sec.
	Records int
	// Bytes is the input size consumed per op for throughput (MB/s)
	// reporting; 0 for stages without a byte-stream input.
	Bytes int64
	// Op runs the stage once at the given worker count (1 = the serial
	// code path, 0 = GOMAXPROCS). It panics on pipeline errors: a
	// benchmark input that fails to build is a bug, not a measurement.
	Op func(workers int)
}

// Set is the shared benchmark fixture: every stage plus the inputs it
// reuses across ops.
type Set struct {
	Seed   uint64
	Nodes  int
	Stages []Stage
}

// New builds the fixture once (full pipeline at the given scale) and
// returns the stage list. ctx bounds fixture construction; the per-op
// closures run uncancellable (a measurement is all-or-nothing).
func New(ctx context.Context, seed uint64, nodes int) (*Set, error) {
	fcfg := faultmodel.DefaultConfig(seed)
	fcfg.Nodes = nodes
	pop, err := faultmodel.Generate(ctx, fcfg)
	if err != nil {
		return nil, fmt.Errorf("benchstage: generate: %w", err)
	}
	dcfg := dataset.DefaultConfig(seed)
	dcfg.Nodes = nodes
	ds, err := dataset.Build(ctx, dcfg)
	if err != nil {
		return nil, fmt.Errorf("benchstage: dataset: %w", err)
	}
	study, err := astra.Run(ctx, astra.Options{Seed: seed, Nodes: nodes})
	if err != nil {
		return nil, fmt.Errorf("benchstage: study: %w", err)
	}
	results, err := study.Analyze(ctx)
	if err != nil {
		return nil, fmt.Errorf("benchstage: analyze: %w", err)
	}

	// The parse stage scans a pre-rendered syslog held in memory, so it
	// measures the wire codec alone (no disk, no dataset build per op).
	var logBuf bytes.Buffer
	if err := ds.WriteSyslog(&logBuf, 100); err != nil {
		return nil, fmt.Errorf("benchstage: render syslog: %w", err)
	}
	logBytes := logBuf.Bytes()
	logRecords := len(ds.CERecords) + len(ds.DUERecords) + len(ds.HETRecords)

	// The columnar replay of the same records: binary decode vs text parse
	// over an identical logical stream.
	var colBuf bytes.Buffer
	if err := colfmt.Write(&colBuf, colfmt.Records{
		CEs: ds.CERecords, DUEs: ds.DUERecords, HETs: ds.HETRecords,
	}); err != nil {
		return nil, fmt.Errorf("benchstage: render colfmt: %w", err)
	}
	colBytes := colBuf.Bytes()

	// predict-features measures the per-record feature-extraction cost the
	// prediction layer adds to the stream engine's ingest hot path. The
	// tracker is warmed once (bank entries exist), so each op is the
	// steady-state path: expected 0 allocs/op, guarded by `astrabench
	// -guard`.
	predictTracker := predict.NewTracker(predict.TrackerConfig{
		Window:      stream.DefaultWindow,
		RateBuckets: stream.DefaultRateBuckets,
	})
	for i := range ds.CERecords {
		predictTracker.Observe(&ds.CERecords[i])
	}

	stages := []Stage{
		{
			Name:    "generate",
			Records: len(pop.CEs),
			Op: func(workers int) {
				cfg := fcfg
				cfg.Parallelism = workers
				if _, err := faultmodel.Generate(context.Background(), cfg); err != nil {
					panic(err)
				}
			},
		},
		{
			Name:    "dataset-build",
			Records: len(ds.CERecords),
			Op: func(workers int) {
				cfg := dcfg
				cfg.Parallelism = workers
				if _, err := dataset.Build(context.Background(), cfg); err != nil {
					panic(err)
				}
			},
		},
		{
			Name:    "parse",
			Records: logRecords,
			Bytes:   int64(len(logBytes)),
			Op: func(workers int) {
				// The serial scanner: one log, one cursor, one decoder —
				// the baseline the block-parallel stage is measured against.
				sc := syslog.NewScanner(bytes.NewReader(logBytes))
				n := 0
				for sc.Scan() {
					n++
				}
				if err := sc.Err(); err != nil {
					panic(err)
				}
				if n != logRecords {
					panic(fmt.Sprintf("benchstage: parse saw %d records, want %d", n, logRecords))
				}
			},
		},
		{
			Name:    "parse-parallel",
			Records: logRecords,
			Bytes:   int64(len(logBytes)),
			Op: func(workers int) {
				// The block-parallel scanner over the same log: newline-
				// aligned blocks decoded by per-worker decoders, merged in
				// order (bit-identical output to the serial stage above).
				sc := syslog.NewBlockScanner(bytes.NewReader(logBytes), syslog.BlockScanConfig{Workers: workers})
				defer sc.Close()
				n := 0
				for sc.Scan() {
					n++
				}
				if err := sc.Err(); err != nil {
					panic(err)
				}
				if n != logRecords {
					panic(fmt.Sprintf("benchstage: parse-parallel saw %d records, want %d", n, logRecords))
				}
			},
		},
		{
			Name:    "colfmt-replay",
			Records: logRecords,
			Bytes:   int64(len(colBytes)),
			Op: func(workers int) {
				// Columnar decode of the identical record stream: the
				// replay path astrareport/astrafit take when handed a
				// records.col file instead of text.
				recs, err := colfmt.Decode(colBytes)
				if err != nil {
					panic(err)
				}
				if n := len(recs.CEs) + len(recs.DUEs) + len(recs.HETs); n != logRecords {
					panic(fmt.Sprintf("benchstage: colfmt-replay saw %d records, want %d", n, logRecords))
				}
			},
		},
		{
			Name:    "cluster",
			Records: len(ds.CERecords),
			Op: func(workers int) {
				cc := core.DefaultClusterConfig()
				cc.Parallelism = workers
				if _, err := core.Cluster(context.Background(), ds.CERecords, cc); err != nil {
					panic(err)
				}
			},
		},
		{
			Name:    "stream-ingest",
			Records: len(ds.CERecords),
			Op: func(workers int) {
				// The online path: a fresh engine ingests the full record
				// stream and is forced through classification by Summary,
				// mirroring what astrad does on restore. One engine serves
				// a site, so workers is ignored.
				e := stream.New(stream.Config{DIMMs: nodes * topology.SlotsPerNode})
				e.IngestBatch(ds.CERecords)
				if sum := e.Summary(); sum.Records != len(ds.CERecords) {
					panic(fmt.Sprintf("benchstage: stream ingested %d records, want %d", sum.Records, len(ds.CERecords)))
				}
			},
		},
		{
			Name:    "predict-features",
			Records: len(ds.CERecords),
			Op: func(workers int) {
				// Feature extraction is strictly arrival-ordered by design
				// (the stream==batch differential depends on it), so there
				// is no parallel variant; workers is ignored.
				for i := range ds.CERecords {
					predictTracker.ObserveFeatures(&ds.CERecords[i])
				}
			},
		},
		{
			Name:    "admission",
			Records: len(ds.CERecords),
			Op: func(workers int) {
				// The overload path at its fast edge: every record through
				// the admission queue (producer + drainer handoff) into the
				// engine, queue deep enough that nothing sheds — measuring
				// the queue's overhead over raw stream-ingest.
				e := stream.New(stream.Config{DIMMs: nodes * topology.SlotsPerNode})
				q := overload.NewQueue[mce.CERecord](overload.Config{
					Capacity: len(ds.CERecords) + 1,
					OnShed:   func(n int) { e.NoteShed(n) },
				})
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						batch, ok := q.Take(1024)
						if len(batch) > 0 {
							e.IngestBatch(batch)
							q.Done()
						}
						if !ok {
							return
						}
					}
				}()
				for _, r := range ds.CERecords {
					q.Offer(r)
				}
				q.Close()
				<-done
				if sum := e.Summary(); sum.Records != len(ds.CERecords) || sum.Shed != 0 {
					panic(fmt.Sprintf("benchstage: admission ingested %d records (%d shed), want %d",
						sum.Records, sum.Shed, len(ds.CERecords)))
				}
			},
		},
		{
			Name:    "analyze",
			Records: len(ds.CERecords),
			Op: func(workers int) {
				s := *study
				s.Options.Parallelism = workers
				if _, err := s.Analyze(context.Background()); err != nil {
					panic(err)
				}
			},
		},
		{
			Name:    "report",
			Records: len(ds.CERecords),
			Op: func(workers int) {
				if err := study.WriteReport(io.Discard, results); err != nil {
					panic(err)
				}
			},
		},
	}
	return &Set{Seed: seed, Nodes: nodes, Stages: stages}, nil
}
