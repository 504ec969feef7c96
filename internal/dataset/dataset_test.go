package dataset

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

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

func TestCETelemetryCSVRoundTrip(t *testing.T) {
	ds := buildSmall(t, 65)
	var buf bytes.Buffer
	if err := ds.WriteCETelemetryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCETelemetryCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds.CERecords) {
		t.Fatalf("rows = %d, want %d", len(got), len(ds.CERecords))
	}
	for i := range got {
		if got[i] != ds.CERecords[i] {
			t.Fatalf("row %d mismatch:\n got %+v\nwant %+v", i, got[i], ds.CERecords[i])
		}
	}
}

func TestCETelemetryCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCETelemetryCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	bad := strings.Join(ceCSVHeader, ",") + "\nnot,a,real,row,a,b,c,d,e,f,g\n"
	if _, err := ReadCETelemetryCSV(strings.NewReader(bad)); err == nil {
		t.Error("garbage row accepted")
	}
}

func TestSensorCSVRoundTrip(t *testing.T) {
	ds := buildSmall(t, 66)
	var buf bytes.Buffer
	if err := ds.WriteSensorCSV(&buf, 100, 60*24*7); err != nil {
		t.Fatal(err)
	}
	samples, err := ReadSensorCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	invalid := 0
	for _, s := range samples {
		if !s.Valid {
			invalid++
		}
	}
	// Invalid fraction must be well under 1% but nonzero on a large draw.
	frac := float64(invalid) / float64(len(samples))
	if frac >= 0.01 {
		t.Errorf("invalid sample fraction = %v", frac)
	}
	// All seven sensors appear.
	sensors := map[topology.Sensor]bool{}
	for _, s := range samples {
		sensors[s.Sensor] = true
	}
	if len(sensors) != int(topology.NumSensors) {
		t.Errorf("sensors present = %d, want %d", len(sensors), topology.NumSensors)
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

func TestBuildParallelMatchesSerial(t *testing.T) {
	serialCfg := smallConfig(62)
	serialCfg.Parallelism = 1
	parCfg := smallConfig(62)
	parCfg.Parallelism = 8

	serial, err := Build(testCtx, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(testCtx, parCfg)
	if err != nil {
		t.Fatal(err)
	}

	if serial.EdacStats != par.EdacStats {
		t.Errorf("EDAC stats differ:\nserial   %+v\nparallel %+v", serial.EdacStats, par.EdacStats)
	}
	if len(serial.CERecords) != len(par.CERecords) {
		t.Fatalf("CE record counts differ: serial %d, parallel %d", len(serial.CERecords), len(par.CERecords))
	}
	for i := range serial.CERecords {
		if serial.CERecords[i] != par.CERecords[i] {
			t.Fatalf("CE record %d differs:\nserial   %+v\nparallel %+v", i, serial.CERecords[i], par.CERecords[i])
		}
	}
	if len(serial.DUERecords) != len(par.DUERecords) {
		t.Fatalf("DUE record counts differ: serial %d, parallel %d", len(serial.DUERecords), len(par.DUERecords))
	}
	for i := range serial.DUERecords {
		if serial.DUERecords[i] != par.DUERecords[i] {
			t.Fatalf("DUE record %d differs", i)
		}
	}
	if len(serial.HETRecords) != len(par.HETRecords) {
		t.Fatalf("HET record counts differ: serial %d, parallel %d", len(serial.HETRecords), len(par.HETRecords))
	}
	for i := range serial.HETRecords {
		if serial.HETRecords[i] != par.HETRecords[i] {
			t.Fatalf("HET record %d differs", i)
		}
	}
}

// BuildFleet is Build without the record streams: everything else it
// returns must equal Build's at every parallelism, for a 1-node fleet,
// for fleets that lose CEs to the EDAC log, and with a log small enough
// that most bursts overflow it.
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
		for _, par := range []int{1, 2, 4} {
			cfg := DefaultConfig(tc.seed)
			cfg.Nodes = tc.nodes
			cfg.EdacCapacity = tc.capacity
			cfg.Parallelism = par
			name := fmt.Sprintf("seed %d nodes %d capacity %d parallelism %d", tc.seed, tc.nodes, tc.capacity, par)
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
}
