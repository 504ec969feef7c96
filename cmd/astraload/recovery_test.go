package main

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"repro/internal/mce"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// TestRecoveryStateSeal pins the sealed checkpoint codec: round trip,
// and detection of a flipped bit anywhere in the image.
func TestRecoveryStateSeal(t *testing.T) {
	cp := syslog.Checkpoint{Offset: 12345}
	recs := []mce.CERecord{{
		Time: time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC),
		Node: topology.NewNodeID(1, 2, 3),
	}}
	data, err := marshalRecoveryState(cp, recs)
	if err != nil {
		t.Fatal(err)
	}
	gcp, grecs, err := unmarshalRecoveryState(data)
	if err != nil {
		t.Fatal(err)
	}
	if gcp.Offset != cp.Offset || len(grecs) != 1 || !grecs[0].Time.Equal(recs[0].Time) {
		t.Fatalf("round trip = offset %d, %d records", gcp.Offset, len(grecs))
	}
	for _, off := range []int{0, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if _, _, err := unmarshalRecoveryState(bad); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", off)
		}
	}
	if _, _, err := unmarshalRecoveryState(data[:10]); err == nil {
		t.Fatal("truncated image went undetected")
	}
}

// TestRecoveryScenarioConverges runs the full kill + corrupt-newest-
// generation + rotate-mid-tail chaos sequence and checks the verdict:
// the restarted pipeline walked the ladder past the flipped generation,
// resumed from a post-rotation offset, and converged to the exact batch
// answer within the bound.
func TestRecoveryScenarioConverges(t *testing.T) {
	rs := RecoverySpec{Seed: 7, Nodes: 32, Keep: 3, BoundMS: 60000}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	rr, err := rs.run(context.Background(), logger)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.ConvergedOK {
		t.Fatalf("recovery did not converge: %s (%+v)", rr.Detail, rr)
	}
	if rr.GenerationsDiscarded != 1 || rr.SurvivorGeneration < 1 {
		t.Fatalf("ladder walk: discarded %d, survivor gen %d", rr.GenerationsDiscarded, rr.SurvivorGeneration)
	}
	if rr.Rotations != 1 {
		t.Fatalf("rotations absorbed = %d, want 1", rr.Rotations)
	}
	if rr.RecordsRestored == 0 || rr.RecordsReplayed == 0 {
		t.Fatalf("recovery did no work: restored %d replayed %d", rr.RecordsRestored, rr.RecordsReplayed)
	}
	if rr.RecordsRestored+rr.RecordsReplayed != rr.Records {
		t.Fatalf("restored %d + replayed %d != records %d", rr.RecordsRestored, rr.RecordsReplayed, rr.Records)
	}
	if rr.RecoveryMs <= 0 || rr.RecoveryMs > rs.BoundMS {
		t.Fatalf("recovery time %vms outside (0, %v]", rr.RecoveryMs, rs.BoundMS)
	}
}
