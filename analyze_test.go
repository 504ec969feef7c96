package astra

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// TestAnalyzeMatchesAnalysesRunAlone is the differential for Analyze's
// task group: its Results must equal every analysis run alone, in order,
// over one record index — the composition bench/batch.go's traced
// replay times analysis by analysis.
func TestAnalyzeMatchesAnalysesRunAlone(t *testing.T) {
	study, err := Run(testCtx, Options{Seed: 1, Nodes: 96})
	if err != nil {
		t.Fatal(err)
	}
	got := mustAnalyze(study)

	ds, n, faults := study.Dataset, study.Options.Nodes, study.Faults
	dimms := n * topology.SlotsPerNode
	ix := core.IndexRecords(ds.CERecords, n)
	want := &Results{
		Breakdown:      ix.BreakdownByMode(faults),
		ErrorsPerFault: core.ErrorsPerFaultDist(faults),
		PerNode:        ix.AnalyzePerNode(faults),
		Structures:     ix.AnalyzeStructures(faults),
		BitAddress:     core.AnalyzeBitAddress(faults),
		TempWindows:    ix.AnalyzeTempWindows(ds.Env, core.Fig9Windows),
		Positional:     ix.AnalyzePositional(faults),
		TempDeciles:    ix.AnalyzeTempDeciles(ds.Env),
		Utilization:    ix.AnalyzeUtilization(ds.Env),
		Uncorrectable:  core.AnalyzeUncorrectable(ds.HETRecords, dimms, ds.Config.Fault.End),
		RegionTemps:    core.AnalyzeRegionTemps(ds.Env, n, 1),
		RackTemps:      core.AnalyzeRackTemps(ds.Env, n, 1),
		FaultRates:     core.AnalyzeFaultRates(faults, dimms, core.StudyWindow()),
		Precursors:     core.AnalyzeDUEPrecursors(ds.DUERecords, faults, dimms),
		ModeStability:  core.AnalyzeModeStability(faults),
		Interarrivals:  core.AnalyzeInterarrivals(ds.CERecords, faults, 500),
	}
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("Results.%s differs from the analysis run alone", g.Type().Field(i).Name)
		}
	}
}

// TestAnalyzeDeterministic asserts Analyze gives identical rendered
// output run to run (guards against map-order float accumulation or a
// scheduling dependence sneaking into an analysis).
func TestAnalyzeDeterministic(t *testing.T) {
	study, err := Run(testCtx, Options{Seed: 2, Nodes: 96})
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		var buf bytes.Buffer
		if err := study.WriteReport(&buf, mustAnalyze(study)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("repeated Analyze renders differ")
	}
}
