package faultmodel

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/topology"
)

// smallConfig is a reduced-scale configuration for fast tests; per-node
// statistics are scale-invariant.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Nodes = 600
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *Population {
	t.Helper()
	pop, err := Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"nodes-zero":      func(c *Config) { c.Nodes = 0 },
		"nodes-huge":      func(c *Config) { c.Nodes = topology.Nodes + 1 },
		"window-empty":    func(c *Config) { c.End = c.Start },
		"frac-negative":   func(c *Config) { c.FaultyNodeFrac = -0.1 },
		"node-alpha":      func(c *Config) { c.NodeAlpha = 1 },
		"err-alpha":       func(c *Config) { c.ErrAlpha = 0.5 },
		"pone":            func(c *Config) { c.POneError = 1.5 },
		"row-skew":        func(c *Config) { c.RowSkew = 0 },
		"due-rate":        func(c *Config) { c.DUEsPerDIMMYear = -1 },
		"mode-negative":   func(c *Config) { c.ModeWeights[SingleBit] = -1 },
		"mode-zero":       func(c *Config) { c.ModeWeights = [NumModes]float64{} },
		"slot-negative":   func(c *Config) { c.SlotWeights[0] = -1 },
		"slot-unbalanced": func(c *Config) { c.SlotWeights[0] += 3 },
		"slot-socket-zero": func(c *Config) {
			for i := 8; i < 16; i++ {
				c.SlotWeights[i] = 0
			}
		},
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallConfig(5))
	b := mustGenerate(t, smallConfig(5))
	if len(a.Faults) != len(b.Faults) || len(a.CEs) != len(b.CEs) || len(a.DUEs) != len(b.DUEs) {
		t.Fatal("same-seed populations differ in size")
	}
	for i := range a.CEs {
		if a.CEs[i] != b.CEs[i] {
			t.Fatalf("CE %d differs", i)
		}
	}
	c := mustGenerate(t, smallConfig(6))
	if len(a.CEs) == len(c.CEs) && len(a.Faults) == len(c.Faults) && a.CEs[0] == c.CEs[0] {
		t.Error("different seeds produced identical output")
	}
}

func TestFaultyNodeFraction(t *testing.T) {
	pop := mustGenerate(t, smallConfig(7))
	faulty := map[topology.NodeID]bool{}
	for _, f := range pop.Faults {
		faulty[f.Anchor.Node] = true
	}
	frac := float64(len(faulty)) / float64(pop.Config.Nodes)
	if math.Abs(frac-0.391) > 0.07 {
		t.Errorf("faulty node fraction = %v, want ~0.391", frac)
	}
}

func TestErrorsPerFaultDistribution(t *testing.T) {
	pop := mustGenerate(t, smallConfig(8))
	counts := make([]int, len(pop.Faults))
	maxN := 0
	for i, f := range pop.Faults {
		counts[i] = f.NErrors
		if f.NErrors > maxN {
			maxN = f.NErrors
		}
	}
	sort.Ints(counts)
	if med := counts[len(counts)/2]; med != 1 {
		t.Errorf("median errors/fault = %d, want 1 (Fig 4b)", med)
	}
	if maxN > pop.Config.MaxErrorsPerFault {
		t.Errorf("max errors/fault = %d exceeds cap", maxN)
	}
	mean := float64(len(pop.CEs)) / float64(len(pop.Faults))
	if mean < 150 || mean > 3000 {
		t.Errorf("mean errors/fault = %v, want a heavy tail (~600-900)", mean)
	}
}

func TestEventIntegrity(t *testing.T) {
	pop := mustGenerate(t, smallConfig(9))
	start := simtime.MinuteOf(pop.Config.Start)
	end := simtime.MinuteOf(pop.Config.End)
	prev := simtime.Minute(math.MinInt64)
	for i, e := range pop.CEs {
		if e.Minute < prev {
			t.Fatalf("CE %d out of order", i)
		}
		prev = e.Minute
		if e.Minute < start || e.Minute > end {
			t.Fatalf("CE %d time %v outside window", i, e.Minute)
		}
		if int(e.Node) >= pop.Config.Nodes {
			t.Fatalf("CE %d node %d out of range", i, e.Node)
		}
		if !e.Addr.Valid() {
			t.Fatalf("CE %d invalid address", i)
		}
		if e.Bit >= topology.CodeBitsPerWord {
			t.Fatalf("CE %d bit %d out of range", i, e.Bit)
		}
		if int(e.FaultID) < 0 || int(e.FaultID) >= len(pop.Faults) {
			t.Fatalf("CE %d fault ID %d out of range", i, e.FaultID)
		}
	}
}

func TestEventsRespectFaultFootprint(t *testing.T) {
	pop := mustGenerate(t, smallConfig(10))
	for _, e := range pop.CEs {
		f := pop.Faults[e.FaultID]
		cell, err := e.Cell()
		if err != nil {
			t.Fatalf("Cell: %v", err)
		}
		if cell.Node != f.Anchor.Node || cell.Slot != f.Anchor.Slot ||
			cell.Rank != f.Anchor.Rank || cell.Bank != f.Anchor.Bank {
			t.Fatalf("error escaped fault bank footprint: %v vs %v", cell, f.Anchor)
		}
		switch f.Mode {
		case SingleBit:
			if cell != f.Anchor || int(e.Bit) != f.Bit {
				t.Fatalf("single-bit fault error moved: %v bit %d vs %v bit %d", cell, e.Bit, f.Anchor, f.Bit)
			}
		case SingleWord:
			if cell != f.Anchor {
				t.Fatalf("single-word fault error left the word: %v vs %v", cell, f.Anchor)
			}
		case SingleColumn:
			if cell.Col != f.Anchor.Col {
				t.Fatalf("single-column fault error changed column")
			}
		case SingleRow:
			if cell.Row != f.Anchor.Row {
				t.Fatalf("single-row fault error changed row")
			}
		case SingleBank:
			// bank equality already checked above
		}
	}
}

func TestModeMix(t *testing.T) {
	pop := mustGenerate(t, smallConfig(11))
	counts := make([]int, NumModes)
	for _, f := range pop.Faults {
		counts[f.Mode]++
	}
	total := float64(len(pop.Faults))
	for m := Mode(0); m < NumModes; m++ {
		got := float64(counts[m]) / total
		want := pop.Config.ModeWeights[m]
		if math.Abs(got-want) > 0.05 {
			t.Errorf("mode %v fraction = %v, want ~%v", m, got, want)
		}
	}
}

func TestSocketBankColumnUniformity(t *testing.T) {
	pop := mustGenerate(t, smallConfig(12))
	sockets := make([]int, topology.SocketsPerNode)
	banks := make([]int, topology.BanksPerRank)
	for _, f := range pop.Faults {
		sockets[f.Anchor.Slot.Socket()]++
		banks[f.Anchor.Bank]++
	}
	if cs, err := stats.ChiSquareUniform(sockets); err != nil || cs.PValue < 0.01 {
		t.Errorf("socket fault distribution rejected as uniform: %+v err=%v", cs, err)
	}
	if cs, err := stats.ChiSquareUniform(banks); err != nil || cs.PValue < 0.001 {
		t.Errorf("bank fault distribution rejected as uniform: %+v err=%v", cs, err)
	}
}

func TestRankAndSlotSkew(t *testing.T) {
	pop := mustGenerate(t, smallConfig(13))
	ranks := make([]int, topology.RanksPerDIMM)
	slots := make([]int, topology.SlotsPerNode)
	for _, f := range pop.Faults {
		ranks[f.Anchor.Rank]++
		slots[f.Anchor.Slot]++
	}
	if ranks[0] <= ranks[1] {
		t.Errorf("rank 0 faults (%d) should exceed rank 1 (%d) (Fig 7b)", ranks[0], ranks[1])
	}
	mean := float64(len(pop.Faults)) / topology.SlotsPerNode
	for _, hot := range []string{"J", "E", "I", "P"} {
		s, _ := topology.ParseSlot(hot)
		if float64(slots[s]) < mean {
			t.Errorf("hot slot %s has %d faults, below mean %.0f", hot, slots[s], mean)
		}
	}
	for _, cold := range []string{"A", "K", "L", "M", "N"} {
		s, _ := topology.ParseSlot(cold)
		if float64(slots[s]) > mean {
			t.Errorf("cold slot %s has %d faults, above mean %.0f", cold, slots[s], mean)
		}
	}
}

func TestErrorTimesFrontLoaded(t *testing.T) {
	pop := mustGenerate(t, smallConfig(14))
	// Within each large fault, error times should lean toward the fault
	// start (decaying intensity -> Fig 4a downward trend).
	checked := 0
	for _, f := range pop.Faults {
		if f.NErrors < 1000 {
			continue
		}
		var sum float64
		var n int
		for _, e := range pop.CEs {
			if int(e.FaultID) == f.ID {
				sum += float64(e.Minute - f.Start)
				n++
			}
		}
		end := simtime.MinuteOf(pop.Config.End)
		meanFrac := sum / float64(n) / float64(end-f.Start)
		if meanFrac >= 0.5 {
			t.Errorf("fault %d error times not front-loaded: mean frac %v", f.ID, meanFrac)
		}
		checked++
		if checked >= 3 {
			break
		}
	}
	if checked == 0 {
		t.Skip("no large faults in this draw")
	}
}

func TestDUEGeneration(t *testing.T) {
	cfg := smallConfig(15)
	cfg.DUEsPerDIMMYear = 2 // raise rate so the test has statistics
	pop := mustGenerate(t, cfg)
	years := cfg.End.Sub(cfg.Start).Hours() / simtime.HoursPerYear
	want := 2 * float64(cfg.Nodes*topology.SlotsPerNode) * years
	got := float64(len(pop.DUEs))
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("DUE count = %v, want ~%v", got, want)
	}
	causes := map[DUECause]int{}
	for i, d := range pop.DUEs {
		if len(d.Bits) < 2 {
			t.Fatalf("DUE %d has %d bits, want >= 2", i, len(d.Bits))
		}
		if d.Bits[0] == d.Bits[1] {
			t.Fatalf("DUE %d has duplicate bits", i)
		}
		if !d.Addr.Valid() || int(d.Node) >= cfg.Nodes {
			t.Fatalf("DUE %d has invalid coordinates", i)
		}
		causes[d.Cause]++
		if i > 0 && pop.DUEs[i-1].Minute > d.Minute {
			t.Fatalf("DUEs out of order at %d", i)
		}
	}
	if causes[CauseUncorrectableECC] == 0 || causes[CauseMachineCheck] == 0 {
		t.Errorf("expected both DUE causes, got %v", causes)
	}
}

func TestFullScaleCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation skipped in -short mode")
	}
	pop := mustGenerate(t, DefaultConfig(1))

	// Total CE volume: paper reports 4,369,731 over 237 days.
	if n := len(pop.CEs); n < 2_000_000 || n > 9_000_000 {
		t.Errorf("total CEs = %d, want ~4.4M", n)
	}
	// Nodes with >= 1 CE: paper reports 1013 of 2592.
	nodeErrs := map[topology.NodeID]int{}
	for _, e := range pop.CEs {
		nodeErrs[e.Node]++
	}
	if n := len(nodeErrs); n < 800 || n > 1250 {
		t.Errorf("nodes with CEs = %d, want ~1013", n)
	}
	// Concentration (Fig 5b): top 8 nodes > 50%, top 2% of nodes ~90%.
	perNode := make([]float64, 0, len(nodeErrs))
	for _, c := range nodeErrs {
		perNode = append(perNode, float64(c))
	}
	if share := stats.TopShare(perNode, 8); share < 0.35 {
		t.Errorf("top-8 node share = %v, want > 0.5-ish", share)
	}
	if share := stats.TopShare(perNode, topology.Nodes*2/100); share < 0.75 {
		t.Errorf("top-2%% node share = %v, want ~0.9", share)
	}
	// Faults per node follow a power law (Fig 5a).
	faultsPerNode := map[topology.NodeID]int{}
	for _, f := range pop.Faults {
		faultsPerNode[f.Anchor.Node]++
	}
	var counts []int
	for _, c := range faultsPerNode {
		counts = append(counts, c)
	}
	fit, err := stats.FitPowerLaw(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 1.2 || fit.Alpha > 2.5 {
		t.Errorf("node fault power law alpha = %v", fit.Alpha)
	}
	// Average CEs per node per day ~ 6 (paper); allow wide band.
	days := pop.Config.End.Sub(pop.Config.Start).Hours() / 24
	perNodeDay := float64(len(pop.CEs)) / float64(topology.Nodes) / days
	if perNodeDay < 3 || perNodeDay > 15 {
		t.Errorf("CEs per node per day = %v, want ~6", perNodeDay)
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Nodes = 100
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Generate(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
