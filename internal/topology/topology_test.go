package topology

import (
	"testing"
	"testing/quick"
)

func TestSystemConstants(t *testing.T) {
	if Nodes != 2592 {
		t.Errorf("Nodes = %d, want 2592", Nodes)
	}
	if DIMMs != 41472 {
		t.Errorf("DIMMs = %d, want 41472", DIMMs)
	}
	if NodesPerRack != 72 {
		t.Errorf("NodesPerRack = %d, want 72", NodesPerRack)
	}
	if SlotsPerNode != 16 {
		t.Errorf("SlotsPerNode = %d, want 16", SlotsPerNode)
	}
	// 16 DIMMs x 8 GiB = 128 GiB per node, matching the address layout.
	if NodeMemBytes != 128<<30 {
		t.Errorf("NodeMemBytes = %d, want 128 GiB", NodeMemBytes)
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	for _, id := range []NodeID{0, 1, 71, 72, 2591, Nodes / 2} {
		back := NewNodeID(id.Rack(), id.Chassis(), id.NodeInChassis())
		if back != id {
			t.Errorf("round trip %d -> %d", id, back)
		}
	}
}

func TestNodeIDCoordinateRanges(t *testing.T) {
	for id := NodeID(0); id < Nodes; id += 97 {
		if r := id.Rack(); r < 0 || r >= Racks {
			t.Fatalf("node %d rack %d out of range", id, r)
		}
		if c := id.Chassis(); c < 0 || c >= ChassisPerRack {
			t.Fatalf("node %d chassis %d out of range", id, c)
		}
		if n := id.NodeInChassis(); n < 0 || n >= NodesPerChassis {
			t.Fatalf("node %d pos %d out of range", id, n)
		}
	}
}

func TestNewNodeIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range rack")
		}
	}()
	NewNodeID(Racks, 0, 0)
}

func TestNodeNameRoundTrip(t *testing.T) {
	for id := NodeID(0); id < Nodes; id++ {
		got, err := ParseNodeID(id.String())
		if err != nil {
			t.Fatalf("ParseNodeID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("ParseNodeID(%q) = %d, want %d", id.String(), got, id)
		}
		if got, ok := ParseCanonicalNodeID(id.AppendString(nil)); !ok || got != id {
			t.Errorf("ParseCanonicalNodeID(%q) = %d, %v; want %d", id.String(), got, ok, id)
		}
	}
}

func TestParseNodeIDErrors(t *testing.T) {
	for _, bad := range []string{"", "astra", "astra-r99c00n0", "astra-r00c99n0", "astra-r00c00n9", "node-r00c00n0"} {
		if _, err := ParseNodeID(bad); err == nil {
			t.Errorf("ParseNodeID(%q) should fail", bad)
		}
		if _, ok := ParseCanonicalNodeID([]byte(bad)); ok {
			t.Errorf("ParseCanonicalNodeID(%q) should fail", bad)
		}
	}
	// Spellings ParseNodeID accepts that AppendString never writes.
	for _, odd := range []string{"astra-r3c11n2", "astra-r03c11n+2", "astra-r03c11n2x", "astra-r03c11n02"} {
		if _, ok := ParseCanonicalNodeID([]byte(odd)); ok {
			t.Errorf("ParseCanonicalNodeID(%q) should fail", odd)
		}
	}
}

func TestRegions(t *testing.T) {
	counts := map[Region]int{}
	for c := 0; c < ChassisPerRack; c++ {
		counts[RegionOfChassis(c)]++
	}
	for r := RegionBottom; r < NumRegions; r++ {
		if counts[r] != 6 {
			t.Errorf("region %v has %d chassis, want 6", r, counts[r])
		}
	}
	if RegionOfChassis(0) != RegionBottom || RegionOfChassis(17) != RegionTop {
		t.Error("region orientation wrong: chassis 0 must be bottom")
	}
	if RegionBottom.String() != "bottom" || RegionTop.String() != "top" || RegionMiddle.String() != "middle" {
		t.Error("region names wrong")
	}
}

func TestSlotProperties(t *testing.T) {
	if len(AllSlots()) != 16 {
		t.Fatal("AllSlots must return 16 slots")
	}
	// A..H are socket 0, I..P socket 1.
	for _, s := range AllSlots() {
		wantSocket := 0
		if s.Name() >= "I" {
			wantSocket = 1
		}
		if s.Socket() != wantSocket {
			t.Errorf("slot %s socket = %d, want %d", s, s.Socket(), wantSocket)
		}
	}
	s, err := ParseSlot("j")
	if err != nil || s.Name() != "J" {
		t.Errorf("ParseSlot(j) = %v, %v", s, err)
	}
	for _, bad := range []string{"", "Q", "AA", "1"} {
		if _, err := ParseSlot(bad); err == nil {
			t.Errorf("ParseSlot(%q) should fail", bad)
		}
	}
}

func TestDIMMIndexUnique(t *testing.T) {
	seen := map[int]bool{}
	for _, node := range []NodeID{0, 1, 2591} {
		for _, slot := range AllSlots() {
			idx := DIMMIndex(node, slot)
			if idx < 0 || idx >= DIMMs {
				t.Fatalf("DIMMIndex out of range: %d", idx)
			}
			if seen[idx] {
				t.Fatalf("DIMMIndex collision at %d", idx)
			}
			seen[idx] = true
		}
	}
}

func TestPhysAddrRoundTrip(t *testing.T) {
	f := func(slot8 uint8, rank bool, bank8 uint8, row16 uint16, col16 uint16, off8 uint8) bool {
		a := CellAddr{
			Node: 17,
			Slot: Slot(int(slot8) % SlotsPerNode),
			Rank: 0,
			Bank: int(bank8) % BanksPerRank,
			Row:  int(row16) % RowsPerBank,
			Col:  int(col16) % ColsPerRow,
		}
		if rank {
			a.Rank = 1
		}
		off := int(off8) % WordBytes
		p := EncodePhysAddr(a, off)
		back, gotOff, err := DecodePhysAddr(17, p)
		return err == nil && back == a && gotOff == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPhysAddrBounds(t *testing.T) {
	if _, _, err := DecodePhysAddr(0, PhysAddr(NodeMemBytes)); err == nil {
		t.Error("DecodePhysAddr should reject out-of-range address")
	}
	a := CellAddr{Node: 0, Slot: 15, Rank: 1, Bank: 15, Row: RowsPerBank - 1, Col: ColsPerRow - 1}
	p := EncodePhysAddr(a, WordBytes-1)
	if !p.Valid() {
		t.Errorf("max coordinate address %#x should be valid", uint64(p))
	}
	if uint64(p) != NodeMemBytes-1 {
		t.Errorf("max coordinate address = %#x, want %#x (dense layout)", uint64(p), uint64(NodeMemBytes-1))
	}
}

func TestEncodePhysAddrPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodePhysAddr(CellAddr{Node: 0, Slot: 99}, 0)
}

func TestPageSize(t *testing.T) {
	a := CellAddr{Node: 0, Slot: 0, Rank: 0, Bank: 0, Row: 0, Col: 0}
	p0 := EncodePhysAddr(a, 0)
	a.Col = PageBytes / WordBytes // first word of next page
	p1 := EncodePhysAddr(a, 0)
	if p0.Page() == p1.Page() {
		t.Error("addresses one page apart mapped to same page")
	}
	if p0.Page() != 0 {
		t.Errorf("page of address 0 = %d", p0.Page())
	}
}

func TestLineBitPosition(t *testing.T) {
	seen := map[int]bool{}
	for col := 0; col < WordsPerLine; col++ {
		for bit := 0; bit < CodeBitsPerWord; bit++ {
			p := LineBitPosition(col, bit)
			if p < 0 || p > MaxLineBitPosition {
				t.Fatalf("LineBitPosition(%d,%d) = %d out of range", col, bit, p)
			}
			if seen[p] {
				t.Fatalf("LineBitPosition collision at %d", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != WordsPerLine*CodeBitsPerWord {
		t.Fatalf("expected %d distinct positions, got %d", WordsPerLine*CodeBitsPerWord, len(seen))
	}
	// Columns in different cache lines but same word offset share positions.
	if LineBitPosition(0, 5) != LineBitPosition(WordsPerLine, 5) {
		t.Error("line bit position should depend on col mod WordsPerLine only")
	}
}

func TestSensorSlotMapping(t *testing.T) {
	// Every slot maps to a DIMM sensor on its own socket.
	for _, s := range AllSlots() {
		sensor := SensorForSlot(s)
		if !sensor.IsDIMM() {
			t.Errorf("slot %s mapped to non-DIMM sensor %v", s, sensor)
		}
		if sensor.Socket() != s.Socket() {
			t.Errorf("slot %s (socket %d) mapped to sensor %v (socket %d)", s, s.Socket(), sensor, sensor.Socket())
		}
	}
	// Paper's grouping: A,C,E,G / B,D,F,H / I,K,M,O / J,L,N,P.
	groups := map[Sensor]string{}
	for _, s := range AllSlots() {
		groups[SensorForSlot(s)] += s.Name()
	}
	want := map[Sensor]string{
		SensorDIMMACEG: "ACEG",
		SensorDIMMBDFH: "BDFH",
		SensorDIMMIKMO: "IKMO",
		SensorDIMMJLNP: "JLNP",
	}
	for sensor, letters := range want {
		if groups[sensor] != letters {
			t.Errorf("sensor %v covers %q, want %q", sensor, groups[sensor], letters)
		}
	}
	// Each DIMM sensor covers exactly 4 slots.
	for _, sensor := range DIMMSensors() {
		if got := len(SlotsForSensor(sensor)); got != 4 {
			t.Errorf("sensor %v covers %d slots, want 4", sensor, got)
		}
	}
	if SlotsForSensor(SensorCPU1) != nil {
		t.Error("SlotsForSensor(CPU1) should be nil")
	}
}

func TestSensorNamesRoundTrip(t *testing.T) {
	for s := Sensor(0); s < NumSensors; s++ {
		back, err := ParseSensor(s.String())
		if err != nil || back != s {
			t.Errorf("sensor %v round trip failed: %v, %v", s, back, err)
		}
	}
	if _, err := ParseSensor("nope"); err == nil {
		t.Error("ParseSensor(nope) should fail")
	}
}

func TestAirflowGeometry(t *testing.T) {
	// CPU2 (socket 1) is upstream of CPU1 (socket 0): shallower depth.
	if AirflowDepth(SensorCPU2) >= AirflowDepth(SensorCPU1) {
		t.Error("CPU2 must be upstream (cooler) of CPU1")
	}
	// Socket-1 DIMM groups upstream of socket-0 DIMM groups.
	for _, s1 := range []Sensor{SensorDIMMIKMO, SensorDIMMJLNP} {
		for _, s0 := range []Sensor{SensorDIMMACEG, SensorDIMMBDFH} {
			if AirflowDepth(s1) >= AirflowDepth(s0) {
				t.Errorf("sensor %v should be upstream of %v", s1, s0)
			}
		}
	}
	for s := Sensor(0); s < NumSensors; s++ {
		d := AirflowDepth(s)
		if d < 0 || d > 1 {
			t.Errorf("AirflowDepth(%v) = %v out of [0,1]", s, d)
		}
	}
}

func TestTemperatureSensorLists(t *testing.T) {
	if got := len(TemperatureSensors()); got != 6 {
		t.Errorf("TemperatureSensors returned %d sensors, want 6", got)
	}
	for _, s := range TemperatureSensors() {
		if !s.IsTemperature() {
			t.Errorf("%v listed as temperature sensor", s)
		}
	}
	if SensorDCPower.IsTemperature() {
		t.Error("power sensor is not a temperature sensor")
	}
}
