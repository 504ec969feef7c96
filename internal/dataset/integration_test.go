package dataset

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// TestPipelineEndToEndViaSyslog replays the whole methodology over the
// text artifacts only: generate → syslog → parse → cluster → analyses,
// and cross-checks counts against the in-memory pipeline.
func TestPipelineEndToEndViaSyslog(t *testing.T) {
	cfg := smallConfig(96)
	cfg.Nodes = 150
	ds, err := Build(testCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 100); err != nil {
		t.Fatal(err)
	}
	ces, dues, hets, _, err := ReadSyslog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	faultsFromText := mustCluster(ces, core.DefaultClusterConfig())
	faultsFromMemory := mustCluster(ds.CERecords, core.DefaultClusterConfig())
	if len(faultsFromText) != len(faultsFromMemory) {
		t.Errorf("fault counts differ: text %d vs memory %d", len(faultsFromText), len(faultsFromMemory))
	}
	u := core.AnalyzeUncorrectable(hets, cfg.Nodes*topology.SlotsPerNode, cfg.Fault.End)
	if u.DUEs > len(dues) {
		t.Errorf("HET DUEs %d exceed machine-check records %d", u.DUEs, len(dues))
	}
	breakdown := core.BreakdownByMode(ces, faultsFromText)
	if breakdown.Total != len(ds.CERecords) {
		t.Errorf("text-path total %d != memory-path %d", breakdown.Total, len(ds.CERecords))
	}
}
