package core

import (
	"testing"
	"time"

	"repro/internal/faultmodel"
	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// rec builds a CE record at explicit coordinates for hand-crafted cases.
func rec(node topology.NodeID, slot topology.Slot, rank, bank, row, col, bit int, minute int) mce.CERecord {
	cell := topology.CellAddr{Node: node, Slot: slot, Rank: rank, Bank: bank, Row: row, Col: col}
	return mce.CERecord{
		Time:   simtime.StudyStart.Add(time.Duration(minute) * time.Minute),
		Node:   node,
		Socket: slot.Socket(),
		Slot:   slot,
		Rank:   rank,
		Bank:   bank,
		RowRaw: row, // hand-crafted tests use transparent rows
		Col:    col,
		BitPos: topology.LineBitPosition(col, bit),
		Addr:   topology.EncodePhysAddr(cell, 0),
	}
}

func TestClusterSingleBit(t *testing.T) {
	records := []mce.CERecord{
		rec(1, 0, 0, 3, 100, 40, 5, 0),
		rec(1, 0, 0, 3, 100, 40, 5, 10),
		rec(1, 0, 0, 3, 100, 40, 5, 20),
	}
	faults := mustCluster(records, DefaultClusterConfig())
	if len(faults) != 1 {
		t.Fatalf("got %d faults, want 1", len(faults))
	}
	f := faults[0]
	if f.Mode != ModeSingleBit || f.NErrors != 3 || f.Bit != topology.LineBitPosition(40, 5) {
		t.Errorf("fault = %+v", f)
	}
	if f.First.After(f.Last) || !f.First.Equal(records[0].Time) {
		t.Errorf("time bounds wrong: %v..%v", f.First, f.Last)
	}
	if len(f.Errors) != 3 {
		t.Errorf("error indices = %v", f.Errors)
	}
}

func TestClusterSingleWord(t *testing.T) {
	records := []mce.CERecord{
		rec(1, 0, 0, 3, 100, 40, 5, 0),
		rec(1, 0, 0, 3, 100, 40, 9, 10), // same word, different bit
	}
	faults := mustCluster(records, DefaultClusterConfig())
	if len(faults) != 1 || faults[0].Mode != ModeSingleWord {
		t.Fatalf("faults = %+v", faults)
	}
}

func TestClusterSingleColumn(t *testing.T) {
	records := []mce.CERecord{
		rec(1, 2, 1, 7, 100, 55, 3, 0),
		rec(1, 2, 1, 7, 200, 55, 3, 10), // same column, different row
		rec(1, 2, 1, 7, 300, 55, 3, 20),
	}
	faults := mustCluster(records, DefaultClusterConfig())
	if len(faults) != 1 || faults[0].Mode != ModeSingleColumn {
		t.Fatalf("faults = %+v", faults)
	}
	if faults[0].Col != 55 || faults[0].NErrors != 3 {
		t.Errorf("fault = %+v", faults[0])
	}
}

func TestClusterSingleBank(t *testing.T) {
	records := []mce.CERecord{
		rec(1, 2, 1, 7, 100, 10, 3, 0),
		rec(1, 2, 1, 7, 200, 20, 3, 10),
		rec(1, 2, 1, 7, 300, 30, 3, 20), // three words, three columns
	}
	faults := mustCluster(records, DefaultClusterConfig())
	if len(faults) != 1 || faults[0].Mode != ModeSingleBank {
		t.Fatalf("faults = %+v", faults)
	}
}

func TestClusterKeepsIndependentFaultsSeparate(t *testing.T) {
	// Two repeat-offender bits in the same bank but different columns:
	// below BankMinWords they must remain two single-bit faults, not
	// merge into a phantom bank fault.
	records := []mce.CERecord{
		rec(1, 2, 1, 7, 100, 10, 3, 0),
		rec(1, 2, 1, 7, 100, 10, 3, 5),
		rec(1, 2, 1, 7, 200, 20, 4, 10),
		rec(1, 2, 1, 7, 200, 20, 4, 15),
	}
	faults := mustCluster(records, DefaultClusterConfig())
	if len(faults) != 2 {
		t.Fatalf("got %d faults, want 2: %+v", len(faults), faults)
	}
	for _, f := range faults {
		if f.Mode != ModeSingleBit || f.NErrors != 2 {
			t.Errorf("fault = %+v", f)
		}
	}
}

func TestClusterSeparatesBanksAndNodes(t *testing.T) {
	records := []mce.CERecord{
		rec(1, 2, 1, 7, 100, 10, 3, 0),
		rec(1, 2, 1, 8, 100, 10, 3, 0), // different bank
		rec(2, 2, 1, 7, 100, 10, 3, 0), // different node
		rec(1, 3, 1, 7, 100, 10, 3, 0), // different slot
		rec(1, 2, 0, 7, 100, 10, 3, 0), // different rank
	}
	faults := mustCluster(records, DefaultClusterConfig())
	if len(faults) != 5 {
		t.Fatalf("got %d faults, want 5", len(faults))
	}
}

func TestClusterRowAblation(t *testing.T) {
	// Errors sharing (opaque) row bits across columns: invisible without
	// row clustering (classified single-bank), recovered with it.
	records := []mce.CERecord{
		rec(1, 2, 1, 7, 123, 10, 3, 0),
		rec(1, 2, 1, 7, 123, 20, 3, 10),
		rec(1, 2, 1, 7, 123, 30, 3, 20),
	}
	noRow := mustCluster(records, DefaultClusterConfig())
	if len(noRow) != 1 || noRow[0].Mode != ModeSingleBank {
		t.Fatalf("without row clustering: %+v", noRow)
	}
	cfg := DefaultClusterConfig()
	cfg.RowClustering = true
	withRow := mustCluster(records, cfg)
	if len(withRow) != 1 || withRow[0].Mode != ModeSingleRow {
		t.Fatalf("with row clustering: %+v", withRow)
	}
}

func TestClusterEmptyInput(t *testing.T) {
	if got := mustCluster(nil, DefaultClusterConfig()); len(got) != 0 {
		t.Errorf("Cluster(nil) = %+v", got)
	}
}

func TestClusterDeterministicOrder(t *testing.T) {
	records := []mce.CERecord{
		rec(3, 1, 0, 2, 10, 10, 1, 0),
		rec(1, 2, 1, 7, 100, 10, 3, 1),
		rec(2, 0, 0, 0, 5, 5, 0, 2),
	}
	a := mustCluster(records, DefaultClusterConfig())
	b := mustCluster(records, DefaultClusterConfig())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Mode != b[i].Mode {
			t.Fatal("cluster output order not deterministic")
		}
	}
}

// encodePopulation converts a generated population to OS-visible records.
func encodePopulation(pop *faultmodel.Population) []mce.CERecord {
	enc := mce.NewEncoder(pop.Config.Seed)
	out := make([]mce.CERecord, len(pop.CEs))
	for i, ev := range pop.CEs {
		out[i] = mustEncodeCE(enc, ev, i)
	}
	return out
}

func generateSmall(t testing.TB, seed uint64, nodes int) (*faultmodel.Population, []mce.CERecord) {
	t.Helper()
	cfg := faultmodel.DefaultConfig(seed)
	cfg.Nodes = nodes
	pop, err := faultmodel.Generate(testCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop, encodePopulation(pop)
}

func TestClusterAgainstGroundTruth(t *testing.T) {
	pop, records := generateSmall(t, 21, 400)
	cfg := DefaultClusterConfig()
	clustered := mustCluster(records, cfg)

	// The faults' error counts must cover every record (ValidateClustering
	// checks the index lists, not NErrors).
	total := 0
	for _, f := range clustered {
		total += f.NErrors
	}
	if total != len(records) {
		t.Fatalf("faults count %d of %d errors", total, len(records))
	}

	m, err := ValidateClustering(pop, records, clustered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Ok(len(records)); err != nil {
		t.Fatalf("validation failed: %v (metrics %+v)", err, m)
	}
	if m.BanksChecked < 100 {
		t.Fatalf("only %d unambiguous banks; generation too small", m.BanksChecked)
	}
	if m.ModeAgreement < 0.9 {
		t.Errorf("clustering agreement = %.3f over %d banks, want >= 0.9", m.ModeAgreement, m.BanksChecked)
	}
	if m.ModeRecall < 0.9 {
		t.Errorf("mode recall against TrueModeObservable = %.3f, want >= 0.9", m.ModeRecall)
	}
}

func TestRowAblationRecoversRowFaults(t *testing.T) {
	pop, records := generateSmall(t, 22, 400)
	cfg := DefaultClusterConfig()
	cfg.RowClustering = true
	clustered := mustCluster(records, cfg)
	rowFaults := 0
	for _, f := range clustered {
		if f.Mode == ModeSingleRow {
			rowFaults++
		}
	}
	gtRows := 0
	for _, f := range pop.Faults {
		if f.Mode == faultmodel.SingleRow && f.NErrors >= 2 {
			gtRows++
		}
	}
	if gtRows == 0 {
		t.Skip("no multi-error row faults in draw")
	}
	if rowFaults == 0 {
		t.Errorf("row ablation recovered 0 of %d ground-truth row faults", gtRows)
	}
	// Without the ablation, none are visible.
	for _, f := range mustCluster(records, DefaultClusterConfig()) {
		if f.Mode == ModeSingleRow {
			t.Fatal("default config must not produce single-row faults")
		}
	}
}

func TestTrueModeObservable(t *testing.T) {
	cfg := DefaultClusterConfig()
	cases := []struct {
		mode  faultmodel.Mode
		words int
		want  FaultMode
	}{
		{faultmodel.SingleBit, 1, ModeSingleBit},
		{faultmodel.SingleWord, 1, ModeSingleWord},
		{faultmodel.SingleColumn, 5, ModeSingleColumn},
		{faultmodel.SingleColumn, 1, ModeSingleBit},
		{faultmodel.SingleRow, 5, ModeSingleBank},
		{faultmodel.SingleRow, 1, ModeSingleBit},
		{faultmodel.SingleBank, 4, ModeSingleBank},
	}
	for _, c := range cases {
		if got := TrueModeObservable(c.mode, c.words, cfg); got != c.want {
			t.Errorf("TrueModeObservable(%v, %d) = %v, want %v", c.mode, c.words, got, c.want)
		}
	}
}

func BenchmarkCluster(b *testing.B) {
	_, records := generateSmall(b, 23, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCluster(records, DefaultClusterConfig())
	}
}
