package retire

import (
	"testing"
	"testing/quick"

	"repro/internal/faultmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Property: for any event sequence and any sane policy, the accounting
// balances (suppressed <= seen; delivered + suppressed == seen) and the
// retired-page count never exceeds the per-node budget.
func TestEngineAccountingProperty(t *testing.T) {
	f := func(rows []uint16, nodes []uint8, threshold uint8, budget uint8) bool {
		th := int(threshold)%8 + 1
		bud := int(budget) % 16
		e := NewEngine(1, Policy{Threshold: th, SuccessProb: 0.5, MaxPagesPerNode: bud})
		delivered := 0
		n := len(rows)
		if len(nodes) < n {
			n = len(nodes)
		}
		for i := 0; i < n; i++ {
			cell := topology.CellAddr{
				Node: topology.NodeID(int(nodes[i]) % 32),
				Slot: 0, Rank: 0, Bank: 0,
				Row: int(rows[i]) % topology.RowsPerBank,
				Col: 0,
			}
			ev := faultmodel.CEEvent{
				Minute: simtime.Minute(i),
				Node:   cell.Node,
				Addr:   topology.EncodePhysAddr(cell, 0),
			}
			if e.Observe(ev) {
				delivered++
			}
		}
		st := e.Stats()
		if st.Seen != n || delivered+st.Suppressed != n {
			return false
		}
		if bud > 0 {
			for node := topology.NodeID(0); node < 32; node++ {
				if e.perNode[node] > bud {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
