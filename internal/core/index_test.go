package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/envmodel"
)

// TestRecordIndexMatchesDirectAnalyses asserts every indexed analysis
// reproduces its free-function counterpart. AnalyzePerNode's power-law fit
// is compared with a float tolerance: the indexed variant feeds the fit in
// ascending node order (deterministic) where the free function ranges
// over a map.
func TestRecordIndexMatchesDirectAnalyses(t *testing.T) {
	const nodes = 400
	_, records := generateSmall(t, 41, nodes)
	faults := mustCluster(records, DefaultClusterConfig())
	env := envmodel.New(41, envmodel.DefaultParams())
	ix := IndexRecords(records, nodes)

	if got, want := ix.BreakdownByMode(faults), BreakdownByMode(records, faults); !reflect.DeepEqual(got, want) {
		t.Error("BreakdownByMode diverges")
	}
	if got, want := ix.AnalyzeStructures(faults), AnalyzeStructures(records, faults); !reflect.DeepEqual(got, want) {
		t.Error("AnalyzeStructures diverges")
	}
	if got, want := ix.AnalyzePositional(faults), AnalyzePositional(records, faults); !reflect.DeepEqual(got, want) {
		t.Error("AnalyzePositional diverges")
	}
	if got, want := ix.AnalyzeTempWindows(env, Fig9Windows), AnalyzeTempWindows(records, env, Fig9Windows); !reflect.DeepEqual(got, want) {
		t.Error("AnalyzeTempWindows diverges")
	}
	if got, want := ix.AnalyzeTempDeciles(env), AnalyzeTempDeciles(records, env, nodes); !reflect.DeepEqual(got, want) {
		t.Error("AnalyzeTempDeciles diverges")
	}
	if got, want := ix.AnalyzeUtilization(env), AnalyzeUtilization(records, env, nodes); !reflect.DeepEqual(got, want) {
		t.Error("AnalyzeUtilization diverges")
	}

	got, want := ix.AnalyzePerNode(faults), AnalyzePerNode(records, faults, nodes)
	if math.Abs(got.PowerLaw.Alpha-want.PowerLaw.Alpha) > 1e-9 {
		t.Errorf("PerNode power-law alpha %v vs %v", got.PowerLaw.Alpha, want.PowerLaw.Alpha)
	}
	got.PowerLaw = want.PowerLaw
	got.PowerLawErr = want.PowerLawErr
	if !reflect.DeepEqual(got, want) {
		t.Error("AnalyzePerNode diverges")
	}
}
