package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/envmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Nodes = 300
	return cfg
}

func buildSmall(t testing.TB, seed uint64) *Dataset {
	t.Helper()
	ds, err := Build(testCtx, smallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildPipeline(t *testing.T) {
	ds := buildSmall(t, 61)
	if len(ds.CERecords) == 0 || len(ds.Pop.CEs) == 0 {
		t.Fatal("empty pipeline output")
	}
	// Conservation: logged + dropped == generated.
	if ds.EdacStats.Offered != uint64(len(ds.Pop.CEs)) {
		t.Errorf("offered %d != generated %d", ds.EdacStats.Offered, len(ds.Pop.CEs))
	}
	if ds.EdacStats.Logged != uint64(len(ds.CERecords)) {
		t.Errorf("logged %d != records %d", ds.EdacStats.Logged, len(ds.CERecords))
	}
	if ds.EdacStats.Logged+ds.EdacStats.Dropped != ds.EdacStats.Offered {
		t.Errorf("stats do not balance: %+v", ds.EdacStats)
	}
	// Bursty faults overflow the CE log: some loss, but bounded.
	if ds.EdacStats.Dropped == 0 {
		t.Error("no CE log loss; burst model not exercising the ring")
	}
	if f := ds.EdacStats.LossFraction(); f > 0.30 {
		t.Errorf("CE loss fraction = %v, implausibly high", f)
	}
	// DUEs are never dropped.
	if len(ds.DUERecords) != len(ds.Pop.DUEs) {
		t.Errorf("DUE records %d != generated %d", len(ds.DUERecords), len(ds.Pop.DUEs))
	}
	// Records are time-ordered.
	for i := 1; i < len(ds.CERecords); i++ {
		if ds.CERecords[i].Time.Before(ds.CERecords[i-1].Time) {
			t.Fatal("CE records out of order")
		}
	}
	if ds.Inventory == nil {
		t.Error("inventory missing")
	}
	if ds.Env == nil {
		t.Error("env model missing")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := buildSmall(t, 62)
	b := buildSmall(t, 62)
	if len(a.CERecords) != len(b.CERecords) || len(a.HETRecords) != len(b.HETRecords) {
		t.Fatal("same-seed datasets differ in size")
	}
	for i := range a.CERecords {
		if a.CERecords[i] != b.CERecords[i] {
			t.Fatal("same-seed CE records differ")
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(testCtx, Config{Nodes: 0}); err == nil {
		t.Error("Build with zero nodes should fail")
	}
}

func TestSyslogRoundTrip(t *testing.T) {
	ds := buildSmall(t, 63)
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 500); err != nil {
		t.Fatal(err)
	}
	ces, dues, hets, stats, err := ReadSyslog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Malformed != 0 {
		t.Errorf("%d malformed lines in our own output", stats.Malformed)
	}
	if stats.Other == 0 {
		t.Error("noise lines missing")
	}
	if len(ces) != len(ds.CERecords) {
		t.Fatalf("CE round trip: %d vs %d", len(ces), len(ds.CERecords))
	}
	if len(dues) != len(ds.DUERecords) || len(hets) != len(ds.HETRecords) {
		t.Fatalf("DUE/HET round trip: %d/%d vs %d/%d", len(dues), len(hets), len(ds.DUERecords), len(ds.HETRecords))
	}
	for i := range ces {
		if ces[i] != ds.CERecords[i] {
			t.Fatalf("CE %d mismatch:\n got %+v\nwant %+v", i, ces[i], ds.CERecords[i])
		}
	}
}

func TestSyslogCorruptionTolerated(t *testing.T) {
	ds := buildSmall(t, 64)
	var buf bytes.Buffer
	if err := ds.WriteSyslog(&buf, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt ~1 in 50 lines by truncation mid-field.
	lines := strings.Split(buf.String(), "\n")
	corrupted := 0
	for i := range lines {
		if i%50 == 25 && len(lines[i]) > 60 {
			lines[i] = lines[i][:60]
			corrupted++
		}
	}
	ces, _, _, stats, err := ReadSyslog(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Malformed == 0 {
		t.Error("corruption not detected")
	}
	if len(ces)+stats.Malformed+stats.DUEs+stats.HETs+stats.Other < len(lines)-1 {
		t.Error("lines unaccounted for")
	}
}

// TestCETelemetryCSVRoundTrip checks that the CE CSV carries every field
// of every record: the file parses as CSV in the release schema, each
// row holds its record's values (rendered here through the String and
// fmt forms, not the writer's append emitters), and the one field the
// schema leaves out, the column, comes back from the node and address.
func TestCETelemetryCSVRoundTrip(t *testing.T) {
	ds := buildSmall(t, 65)
	var buf bytes.Buffer
	if err := ds.WriteCETelemetryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = len(ceCSVHeader)
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ds.CERecords)+1 {
		t.Fatalf("rows = %d, want a header and %d records", len(rows), len(ds.CERecords))
	}
	if !reflect.DeepEqual(rows[0], ceCSVHeader) {
		t.Fatalf("header = %q, want %q", rows[0], ceCSVHeader)
	}
	for i, r := range ds.CERecords {
		want := []string{
			r.Time.UTC().Format(time.RFC3339Nano), r.Node.String(), strconv.Itoa(r.Socket), "mem-ce", r.Slot.String(),
			strconv.Itoa(r.RowRaw), strconv.Itoa(r.Rank), strconv.Itoa(r.Bank), strconv.Itoa(r.BitPos),
			fmt.Sprintf("%#x", uint64(r.Addr)), fmt.Sprintf("%#x", r.Syndrome),
		}
		if got := rows[i+1]; !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d = %q, want %q", i+2, got, want)
		}
		cell, _, err := topology.DecodePhysAddr(r.Node, r.Addr)
		if err != nil || cell.Col != r.Col {
			t.Fatalf("row %d: column from address = %d (%v), want %d", i+2, cell.Col, err, r.Col)
		}
	}
}

// TestSensorCSVRoundTrip reads the sensor CSV back: one row per sampled
// node, minute and sensor, each naming its sensor by String and carrying
// a number. The invalid readings the file keeps (§2.2) stay under 1% of
// the rows, and all seven sensors appear.
func TestSensorCSVRoundTrip(t *testing.T) {
	ds := buildSmall(t, 66)
	const nodeStride, minuteStride = 100, 60 * 24 * 7
	var buf bytes.Buffer
	if err := ds.WriteSensorCSV(&buf, nodeStride, minuteStride); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = 4
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"timestamp", "node", "sensor", "value"}; len(rows) == 0 || !reflect.DeepEqual(rows[0], want) {
		t.Fatalf("header missing or wrong; want %q", want)
	}
	minutes := int(simtime.MinuteOf(simtime.EnvEnd) - simtime.MinuteOf(simtime.EnvStart))
	nodes := (ds.Config.Nodes + nodeStride - 1) / nodeStride
	if want := nodes * ((minutes + minuteStride - 1) / minuteStride) * int(topology.NumSensors); len(rows)-1 != want {
		t.Fatalf("samples = %d, want %d", len(rows)-1, want)
	}
	byName := map[string]topology.Sensor{}
	for s := topology.Sensor(0); s < topology.NumSensors; s++ {
		byName[s.String()] = s
	}
	seen := map[topology.Sensor]bool{}
	invalid := 0
	for i, row := range rows[1:] {
		if _, err := time.Parse(time.RFC3339, row[0]); err != nil {
			t.Fatalf("row %d: %v", i+2, err)
		}
		if _, err := topology.ParseNodeID(row[1]); err != nil {
			t.Fatalf("row %d: %v", i+2, err)
		}
		s, ok := byName[row[2]]
		if !ok {
			t.Fatalf("row %d: unknown sensor %q", i+2, row[2])
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("row %d: %v", i+2, err)
		}
		seen[s] = true
		if lo, hi := envmodel.PlausibleRange(s); v < lo || v > hi {
			invalid++
		}
	}
	if frac := float64(invalid) / float64(len(rows)-1); frac >= 0.01 {
		t.Errorf("invalid sample fraction = %v", frac)
	}
	if len(seen) != int(topology.NumSensors) {
		t.Errorf("sensors present = %d, want %d", len(seen), topology.NumSensors)
	}
}

func TestSensorCSVStrideValidation(t *testing.T) {
	ds := buildSmall(t, 67)
	if err := ds.WriteSensorCSV(&bytes.Buffer{}, 0, 1); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestReplacementsCSV(t *testing.T) {
	ds := buildSmall(t, 68)
	var buf bytes.Buffer
	if err := ds.WriteReplacementsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(ds.Inventory.Replacements)+1 {
		t.Errorf("lines = %d, want %d", lines, len(ds.Inventory.Replacements)+1)
	}
	// Inventory disabled: writing fails cleanly.
	cfg := smallConfig(68)
	cfg.Inventory = false
	ds2, err := Build(testCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.WriteReplacementsCSV(&bytes.Buffer{}); err == nil {
		t.Error("expected error without inventory")
	}
}

func TestDatasetVerify(t *testing.T) {
	ds := buildSmall(t, 97)
	if err := ds.Verify(); err != nil {
		t.Fatalf("clean dataset failed self-check: %v", err)
	}
	// Corrupt a record: self-check must catch it.
	ds.CERecords[0].Syndrome = 0
	if err := ds.Verify(); err == nil {
		t.Error("corrupted record passed self-check")
	}
}

// BuildFleet is Build without the record streams: everything else it
// returns must equal Build's, for a 1-node fleet, for fleets that lose
// CEs to the EDAC log, and with a log small enough that most bursts
// overflow it.
func TestBuildFleetMatchesBuild(t *testing.T) {
	cases := []struct {
		seed     uint64
		nodes    int
		capacity int
		lossy    bool
	}{
		{seed: 5, nodes: 48, lossy: true},
		{seed: 9, nodes: 64, lossy: true},
		{seed: 3, nodes: 1},
		{seed: 3, nodes: 16, capacity: 4, lossy: true},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(tc.seed)
		cfg.Nodes = tc.nodes
		cfg.EdacCapacity = tc.capacity
		name := fmt.Sprintf("seed %d nodes %d capacity %d", tc.seed, tc.nodes, tc.capacity)
		full, err := Build(testCtx, cfg)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		fleet, err := BuildFleet(testCtx, cfg)
		if err != nil {
			t.Fatalf("%s: BuildFleet: %v", name, err)
		}
		if fleet.EdacStats != full.EdacStats {
			t.Errorf("%s: EDAC stats %+v, Build's %+v", name, fleet.EdacStats, full.EdacStats)
		}
		if tc.lossy && full.EdacStats.Dropped == 0 {
			t.Errorf("%s: no EDAC loss to reproduce", name)
		}
		if !reflect.DeepEqual(fleet.Config, full.Config) {
			t.Errorf("%s: Config %+v, Build's %+v", name, fleet.Config, full.Config)
		}
		if !reflect.DeepEqual(fleet.Pop, full.Pop) {
			t.Errorf("%s: population differs from Build's", name)
		}
		if !reflect.DeepEqual(fleet.Inventory, full.Inventory) {
			t.Errorf("%s: inventory differs from Build's", name)
		}
		if !reflect.DeepEqual(fleet.Env, full.Env) {
			t.Errorf("%s: env model differs from Build's", name)
		}
		if fleet.CERecords != nil || fleet.DUERecords != nil || fleet.HETRecords != nil {
			t.Errorf("%s: BuildFleet encoded records", name)
		}
	}
}

// TestBuildAllocs pins what one Build allocates at a fixed seed and
// size. A per-record allocation creeping into fault generation, EDAC
// replay or record encoding trips the ceiling.
func TestBuildAllocs(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Nodes = 48
	n := testing.AllocsPerRun(2, func() {
		if _, err := Build(testCtx, cfg); err != nil {
			panic(err)
		}
	})
	// 3,533 when pinned; the ceiling allows the larger of +10% and +16.
	if n > 3886 {
		t.Errorf("Build: %v allocs, want at most 3886", n)
	}
}
