package inventory

import (
	"math"
	"testing"

	"repro/internal/simtime"
	"repro/internal/topology"
)

func TestKindNamesAndPopulations(t *testing.T) {
	if Processor.String() != "processor" || Motherboard.String() != "motherboard" || DIMM.String() != "dimm" {
		t.Errorf("kind names = %v, %v, %v", Processor, Motherboard, DIMM)
	}
	if Processor.Population() != 5184 {
		t.Errorf("processors = %d, want 5184", Processor.Population())
	}
	if Motherboard.Population() != 2592 {
		t.Errorf("motherboards = %d, want 2592", Motherboard.Population())
	}
	if DIMM.Population() != 41472 {
		t.Errorf("DIMMs = %d, want 41472", DIMM.Population())
	}
	if len(Processor.Slots()) != 2 || len(Motherboard.Slots()) != 1 || len(DIMM.Slots()) != 16 {
		t.Error("slot lists wrong")
	}
}

func TestPhaseIntensityNormalizes(t *testing.T) {
	for _, proc := range DefaultProcesses() {
		for _, ph := range proc.Phases {
			sum := 0.0
			for d := simtime.DayOf(simtime.ReplacementStart); d < simtime.DayOf(simtime.ReplacementEnd); d++ {
				v := ph.Intensity(d)
				if v < 0 {
					t.Fatalf("%v/%s: negative intensity", proc.Kind, ph.Label)
				}
				sum += v
			}
			if math.Abs(sum-ph.Expected) > 0.02*ph.Expected+0.5 {
				t.Errorf("%v/%s: intensity sums to %v, want %v", proc.Kind, ph.Label, sum, ph.Expected)
			}
		}
	}
}

func TestDefaultCalibrationMatchesTable1(t *testing.T) {
	want := map[Kind]float64{Processor: 836, Motherboard: 46, DIMM: 1515}
	for _, proc := range DefaultProcesses() {
		got := 0.0
		for _, ph := range proc.Phases {
			got += ph.Expected
		}
		if math.Abs(got-want[proc.Kind]) > 0.01*want[proc.Kind] {
			t.Errorf("%v expected total = %v, want %v", proc.Kind, got, want[proc.Kind])
		}
	}
}

func TestGenerateTotals(t *testing.T) {
	h, err := Generate(1, topology.Nodes, DefaultProcesses())
	if err != nil {
		t.Fatal(err)
	}
	totals := h.Totals()
	for _, c := range []struct {
		kind Kind
		want float64
	}{{Processor, 836}, {Motherboard, 46}, {DIMM, 1515}} {
		got := float64(totals[c.kind])
		if math.Abs(got-c.want) > 4*math.Sqrt(c.want)+1 {
			t.Errorf("%v total = %v, want ~%v", c.kind, got, c.want)
		}
	}
}

func TestGenerateInfantMortalityShape(t *testing.T) {
	h, err := Generate(2, topology.Nodes, DefaultProcesses())
	if err != nil {
		t.Fatal(err)
	}
	// DIMM replacements in the first 30 days should exceed those in days
	// 31-60 (decay), and the vendor-visit tail should be busy again.
	daily := h.DailyCounts(DIMM)
	start := simtime.DayOf(simtime.ReplacementStart)
	sumRange := func(from, to simtime.Day) int {
		s := 0
		for d := from; d < to; d++ {
			s += daily[d]
		}
		return s
	}
	early := sumRange(start, start+30)
	mid := sumRange(start+31, start+61)
	if early <= mid {
		t.Errorf("no infant-mortality decay: first 30d = %d, next 30d = %d", early, mid)
	}
	endD := simtime.DayOf(simtime.ReplacementEnd)
	tail := sumRange(endD-9, endD)
	if tail < 100 {
		t.Errorf("vendor-visit tail too quiet: %d in last 9 days", tail)
	}
}

func TestGenerateProcessorUpgradeCampaign(t *testing.T) {
	h, err := Generate(3, topology.Nodes, DefaultProcesses())
	if err != nil {
		t.Fatal(err)
	}
	daily := h.DailyCounts(Processor)
	// July should be much busier than May (speed-upgrade campaign).
	monthSum := func(m int) int {
		s := 0
		for d, c := range daily {
			if int(d.Time().Month()) == m {
				s += c
			}
		}
		return s
	}
	if july, may := monthSum(7), monthSum(5); july < 3*may {
		t.Errorf("speed-upgrade campaign missing: July=%d May=%d", july, may)
	}
}

func TestGenerateScaledDown(t *testing.T) {
	h, err := Generate(4, 259, DefaultProcesses()) // ~10% of the system
	if err != nil {
		t.Fatal(err)
	}
	totals := h.Totals()
	if got := float64(totals[Processor]); math.Abs(got-83.6) > 40 {
		t.Errorf("scaled processor total = %v, want ~84", got)
	}
	for _, r := range h.Replacements {
		if int(r.Node) >= 259 {
			t.Fatalf("replacement on out-of-range node %d", r.Node)
		}
	}
}

func TestGenerateRejectsBadNodeCount(t *testing.T) {
	if _, err := Generate(1, 0, DefaultProcesses()); err == nil {
		t.Error("Generate(0 nodes) should fail")
	}
	if _, err := Generate(1, topology.Nodes+1, DefaultProcesses()); err == nil {
		t.Error("Generate(too many nodes) should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(7, 100, DefaultProcesses())
	b, _ := Generate(7, 100, DefaultProcesses())
	if len(a.Replacements) != len(b.Replacements) {
		t.Fatal("same-seed histories differ in length")
	}
	for i := range a.Replacements {
		if a.Replacements[i] != b.Replacements[i] {
			t.Fatal("same-seed replacements differ")
		}
	}
}

func TestRegistryAndDiff(t *testing.T) {
	reg := NewRegistry(2)
	before := reg.Snapshot()
	if len(before) != 2*(2+1+16) {
		t.Fatalf("registry size = %d", len(before))
	}
	loc := topology.NodeID(1).String() + "/dimmJ"
	old := reg.SerialAt(loc)
	if old == "" {
		t.Fatal("missing factory serial")
	}
	fresh := reg.Replace(loc, DIMM)
	if fresh == old {
		t.Fatal("Replace did not mint a new serial")
	}
	after := reg.Snapshot()
	obs := Diff(before, after)
	if len(obs) != 1 || obs[0].Location != loc || obs[0].OldSerial != old || obs[0].NewSerial != fresh {
		t.Errorf("Diff = %+v", obs)
	}
	// Diff handles added/removed locations.
	delete(after, loc)
	after["phantom/loc"] = "SN-X"
	obs = Diff(before, after)
	var sawRemoved, sawAdded bool
	for _, o := range obs {
		if o.Location == loc && o.NewSerial == "" {
			sawRemoved = true
		}
		if o.Location == "phantom/loc" && o.OldSerial == "" {
			sawAdded = true
		}
	}
	if !sawRemoved || !sawAdded {
		t.Errorf("Diff missed added/removed locations: %+v", obs)
	}
}

func TestDiffDetectsGeneratedHistory(t *testing.T) {
	// Replaying the ground-truth history day by day through scans and
	// diffing must recover exactly the generated replacement count.
	procs := DefaultProcesses()
	h, err := Generate(9, 200, procs)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(200)
	byDay := map[simtime.Day][]Replacement{}
	for _, r := range h.Replacements {
		byDay[r.Day] = append(byDay[r.Day], r)
	}
	prev := reg.Snapshot()
	detected := 0
	for d := simtime.DayOf(simtime.ReplacementStart); d < simtime.DayOf(simtime.ReplacementEnd); d++ {
		for _, r := range byDay[d] {
			reg.serials[r.Location()] = r.NewSerial
		}
		cur := reg.Snapshot()
		detected += len(Diff(prev, cur))
		prev = cur
	}
	// Same-day double replacement at one location collapses to one
	// observed swap; allow that small deficit.
	if detected > len(h.Replacements) || len(h.Replacements)-detected > len(h.Replacements)/20 {
		t.Errorf("detected %d of %d replacements", detected, len(h.Replacements))
	}
}
