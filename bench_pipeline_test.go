package astra_test

// Pipeline-stage benchmarks: each stage at the serial (workers=1) and
// auto (workers=GOMAXPROCS) settings, sharing one fixture. This file is
// an external test package because it imports internal/benchstage, which
// itself imports the root package.
//
//	ASTRA_BENCH_NODES=256 go test -run '^$' -bench 'Stage' -benchmem .

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/benchstage"
)

var (
	stageOnce sync.Once
	stageSet  *benchstage.Set
	stageErr  error
)

func stageSetup(b *testing.B) *benchstage.Set {
	b.Helper()
	stageOnce.Do(func() {
		stageSet, stageErr = benchstage.New(context.Background(), 1, benchstage.Nodes())
	})
	if stageErr != nil {
		b.Fatal(stageErr)
	}
	return stageSet
}

func findStage(b *testing.B, name string) *benchstage.Stage {
	b.Helper()
	set := stageSetup(b)
	for i := range set.Stages {
		if set.Stages[i].Name == name {
			return &set.Stages[i]
		}
	}
	b.Fatalf("unknown stage %q", name)
	return nil
}

func runStage(b *testing.B, stage *benchstage.Stage, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stage.Op(workers)
	}
	b.ReportMetric(float64(stage.Records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	if stage.Bytes > 0 {
		b.ReportMetric(float64(stage.Bytes)/1e6*float64(b.N)/b.Elapsed().Seconds(), "MB/s")
	}
}

func benchStage(b *testing.B, name string) {
	stage := findStage(b, name)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"auto", 0}} {
		b.Run(bench.name, func(b *testing.B) { runStage(b, stage, bench.workers) })
	}
}

// benchStageSweep runs a stage across an explicit worker-count ladder so
// the scaling curve of a parallelized layer is visible release to
// release, not just its serial/auto endpoints.
func benchStageSweep(b *testing.B, name string, workerCounts []int) {
	stage := findStage(b, name)
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { runStage(b, stage, w) })
	}
}

func BenchmarkStageGenerate(b *testing.B)     { benchStage(b, "generate") }
func BenchmarkStageDatasetBuild(b *testing.B) { benchStage(b, "dataset-build") }
func BenchmarkStageParse(b *testing.B)        { benchStage(b, "parse") }
func BenchmarkStageCluster(b *testing.B)      { benchStage(b, "cluster") }
func BenchmarkStageReport(b *testing.B)       { benchStage(b, "report") }

// The online path: one engine ingests the whole record stream. One
// engine serves a site, so the stage has no worker setting.
func BenchmarkStageStreamIngest(b *testing.B) {
	stage := findStage(b, "stream-ingest")
	b.Run("serial", func(b *testing.B) { runStage(b, stage, 1) })
}
func BenchmarkStageAdmission(b *testing.B) { benchStage(b, "admission") }

// The prediction layer's ingest-path overhead: per-record feature
// updates on a warm tracker. Serial only — feature extraction is
// arrival-ordered by design. Expected 0 allocs/op.
func BenchmarkStagePredictFeatures(b *testing.B) {
	stage := findStage(b, "predict-features")
	b.Run("serial", func(b *testing.B) { runStage(b, stage, 1) })
}

// The block-parallel scanner and the columnar replay: the two ingest
// paths the text parse stage above is the baseline for.
func BenchmarkStageParseParallel(b *testing.B) {
	benchStageSweep(b, "parse-parallel", []int{1, 2, 4, 8})
}
func BenchmarkStageColfmtReplay(b *testing.B) { benchStage(b, "colfmt-replay") }

// Analyze sweeps a worker ladder: its per-node and bit/address layers
// are parallelized, so the curve matters, not just the endpoints.
func BenchmarkStageAnalyze(b *testing.B) {
	benchStageSweep(b, "analyze", []int{1, 2, 4, 8})
}
