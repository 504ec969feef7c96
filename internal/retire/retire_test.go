package retire

import (
	"context"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func eventAt(node topology.NodeID, row, col int, minute simtime.Minute) faultmodel.CEEvent {
	cell := topology.CellAddr{Node: node, Slot: 0, Rank: 0, Bank: 0, Row: row, Col: col}
	return faultmodel.CEEvent{Minute: minute, Node: node, Addr: topology.EncodePhysAddr(cell, 0), Bit: 1}
}

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Policy{
		{Threshold: 0, SuccessProb: 0.5},
		{Threshold: 1, SuccessProb: -0.1},
		{Threshold: 1, SuccessProb: 1.5},
		{Threshold: 1, SuccessProb: 0.5, MaxPagesPerNode: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d accepted: %+v", i, p)
		}
	}
}

func TestRetirementSuppressesRepeatOffender(t *testing.T) {
	e := NewEngine(1, Policy{Threshold: 3, SuccessProb: 1})
	var kept int
	for i := 0; i < 10; i++ {
		if e.Observe(eventAt(5, 100, 0, simtime.Minute(i))) {
			kept++
		}
	}
	// First 3 errors arrive (retirement fires at the 3rd); the rest are
	// suppressed.
	if kept != 3 {
		t.Errorf("kept = %d, want 3", kept)
	}
	st := e.Stats()
	if st.Suppressed != 7 || st.Retired != 1 || st.Seen != 10 {
		t.Errorf("stats = %+v", st)
	}
	if e.perNode[5] != 1 {
		t.Errorf("retired pages on node 5 = %d, want 1", e.perNode[5])
	}
}

func TestDifferentPagesIndependent(t *testing.T) {
	e := NewEngine(1, Policy{Threshold: 2, SuccessProb: 1})
	// Two errors on page A retire it; page B remains live.
	e.Observe(eventAt(1, 0, 0, 0))
	e.Observe(eventAt(1, 0, 0, 1))
	if !e.Observe(eventAt(1, 4000, 0, 2)) {
		t.Error("error on unrelated page suppressed")
	}
	if e.Observe(eventAt(1, 0, 0, 3)) {
		t.Error("error on retired page not suppressed")
	}
}

func TestFailedRetirementKeepsErrorsFlowing(t *testing.T) {
	e := NewEngine(1, Policy{Threshold: 2, SuccessProb: 0})
	kept := 0
	for i := 0; i < 50; i++ {
		if e.Observe(eventAt(2, 7, 7, simtime.Minute(i))) {
			kept++
		}
	}
	if kept != 50 {
		t.Errorf("kept = %d, want all 50 (retirement always fails)", kept)
	}
	if st := e.Stats(); st.Failed != 1 || st.Retired != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPageBudget(t *testing.T) {
	e := NewEngine(1, Policy{Threshold: 1, SuccessProb: 1, MaxPagesPerNode: 2})
	// Three distinct pages hit threshold; only two may retire.
	for p := 0; p < 3; p++ {
		e.Observe(eventAt(3, p*8, 0, simtime.Minute(p)))
	}
	st := e.Stats()
	if st.Retired != 2 || st.BudgetExhausted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.MemoryRetiredBytes(); got != 2*topology.PageBytes {
		t.Errorf("MemoryRetiredBytes = %d", got)
	}
}

func TestFilterReducesHeavyFaultStream(t *testing.T) {
	cfg := faultmodel.DefaultConfig(11)
	cfg.Nodes = 200
	pop, err := faultmodel.Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(2, DefaultPolicy())
	kept := e.Filter(pop.CEs)
	if len(kept) >= len(pop.CEs) {
		t.Errorf("retirement removed nothing: %d -> %d", len(pop.CEs), len(kept))
	}
	st := e.Stats()
	if st.Seen != len(pop.CEs) || st.Suppressed != len(pop.CEs)-len(kept) {
		t.Errorf("stats inconsistent: %+v vs %d/%d", st, len(pop.CEs), len(kept))
	}
	// Retirement must bite hard on single-bit repeat offenders: the
	// surviving stream should be a small fraction when most errors come
	// from a few stuck bits.
	if float64(len(kept)) > 0.9*float64(len(pop.CEs)) {
		t.Logf("note: retirement suppressed only %.1f%% of errors", 100*float64(st.Suppressed)/float64(st.Seen))
	}
}

func TestNewEnginePanicsOnBadPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(1, Policy{Threshold: 0})
}

func TestEngineDeterministic(t *testing.T) {
	mk := func() Stats {
		e := NewEngine(42, Policy{Threshold: 2, SuccessProb: 0.5})
		for i := 0; i < 200; i++ {
			e.Observe(eventAt(topology.NodeID(i%5), (i%17)*8, 0, simtime.Minute(i)))
		}
		return e.Stats()
	}
	if mk() != mk() {
		t.Error("same-seed engines diverge")
	}
}
