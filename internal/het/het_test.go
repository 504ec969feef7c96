package het

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func TestEventTypeNamesRoundTrip(t *testing.T) {
	for et := EventType(0); et < NumEventTypes; et++ {
		back, err := ParseEventTypeBytes([]byte(et.String()))
		if err != nil || back != et {
			t.Errorf("event type %v round trip: %v, %v", et, back, err)
		}
	}
	if _, err := ParseEventTypeBytes([]byte("bogus")); err == nil {
		t.Error("ParseEventTypeBytes(bogus) should fail")
	}
}

func TestSeverityNamesRoundTrip(t *testing.T) {
	for s := Severity(0); s < NumSeverities; s++ {
		back, err := ParseSeverityBytes([]byte(s.String()))
		if err != nil || back != s {
			t.Errorf("severity %v round trip: %v, %v", s, back, err)
		}
	}
	if _, err := ParseSeverityBytes([]byte("FATAL")); err == nil {
		t.Error("ParseSeverityBytes(FATAL) should fail")
	}
}

func TestSeverityOfMemoryEvents(t *testing.T) {
	if SeverityOf(UncorrectableECC) != SeverityNonRecoverable ||
		SeverityOf(UncorrectableMCE) != SeverityNonRecoverable {
		t.Error("memory DUE events must be NON-RECOVERABLE (Fig 15b)")
	}
	if SeverityOf(UCGoingHigh) == SeverityNonRecoverable {
		t.Error("threshold events are not NON-RECOVERABLE")
	}
}

func TestFirmwareGate(t *testing.T) {
	before := Record{Time: simtime.HETStart.Add(-time.Hour)}
	after := Record{Time: simtime.HETStart}
	if before.Recorded() {
		t.Error("record before firmware gate should be suppressed")
	}
	if !after.Recorded() {
		t.Error("record at firmware gate should be recorded")
	}
}

func TestFromDUE(t *testing.T) {
	d := mce.DUERecord{Time: simtime.HETStart.Add(time.Hour), Node: 3, Addr: 0x1000, Fatal: true}
	r := FromDUE(d)
	if r.Type != UncorrectableMCE || r.Severity != SeverityNonRecoverable || r.Addr != 0x1000 {
		t.Errorf("FromDUE fatal = %+v", r)
	}
	d.Fatal = false
	if FromDUE(d).Type != UncorrectableECC {
		t.Error("non-fatal DUE should map to uncorrectableECC")
	}
}

// mustAmbient is GenerateAmbient under a background context, where an
// error is a test bug.
func mustAmbient(t *testing.T, seed uint64, start, end time.Time, nodes int) []Record {
	t.Helper()
	recs, err := GenerateAmbient(context.Background(), seed, start, end, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestGenerateAmbient(t *testing.T) {
	recs := mustAmbient(t, 1, simtime.HETStart, simtime.StudyEnd, topology.Nodes)
	if len(recs) == 0 {
		t.Fatal("no ambient events generated")
	}
	types := map[EventType]int{}
	prev := time.Time{}
	for i, r := range recs {
		if r.Time.Before(prev) {
			t.Fatalf("record %d out of order", i)
		}
		prev = r.Time
		if !r.Recorded() {
			t.Fatalf("record %d precedes the firmware gate", i)
		}
		if r.Type == UncorrectableECC || r.Type == UncorrectableMCE {
			t.Fatalf("ambient generator produced a memory DUE")
		}
		types[r.Type]++
	}
	for _, et := range []EventType{RedundancyLost, UCGoingHigh, PowerSupplyFailure, PowerSupplyFailureDeasserted} {
		if types[et] == 0 {
			t.Errorf("no %v events in 22 days", et)
		}
	}
	// PSU failures arrive in assert/de-assert pairs; allow loss at the
	// window edge.
	if d := types[PowerSupplyFailure] - types[PowerSupplyFailureDeasserted]; d < 0 || d > 3 {
		t.Errorf("assert/deassert imbalance: %d vs %d",
			types[PowerSupplyFailure], types[PowerSupplyFailureDeasserted])
	}
	// Daily volume should be "a few to ~25" — mean within sane bounds.
	days := simtime.StudyEnd.Sub(simtime.HETStart).Hours() / 24
	perDay := float64(len(recs)) / days
	if perDay < 2 || perDay > 40 {
		t.Errorf("ambient events per day = %v", perDay)
	}
}

func TestGenerateAmbientDeterministic(t *testing.T) {
	a := mustAmbient(t, 5, simtime.HETStart, simtime.EnvEnd, 100)
	b := mustAmbient(t, 5, simtime.HETStart, simtime.EnvEnd, 100)
	if len(a) != len(b) {
		t.Fatal("same-seed streams differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed records differ")
		}
	}
}

func TestGenerateAmbientBeforeGateSuppressed(t *testing.T) {
	recs := mustAmbient(t, 2, simtime.EnvStart, simtime.HETStart, topology.Nodes)
	if len(recs) != 0 {
		t.Errorf("%d records generated entirely before the firmware gate", len(recs))
	}
}

func TestGenerateAmbientCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if recs, err := GenerateAmbient(ctx, 1, simtime.HETStart, simtime.StudyEnd, topology.Nodes); !errors.Is(err, context.Canceled) || recs != nil {
		t.Fatalf("recs=%d err=%v, want no records and context.Canceled", len(recs), err)
	}
}

func TestMerge(t *testing.T) {
	early := Record{Time: simtime.HETStart.Add(-time.Hour), Type: UCGoingHigh}
	a := Record{Time: simtime.HETStart.Add(2 * time.Hour), Type: RedundancyLost}
	b := Record{Time: simtime.HETStart.Add(time.Hour), Type: UNRGoingHigh}
	got := Merge([]Record{early, a}, []Record{b})
	if len(got) != 2 {
		t.Fatalf("Merge kept %d records, want 2 (gate drops one)", len(got))
	}
	if got[0].Type != UNRGoingHigh || got[1].Type != RedundancyLost {
		t.Errorf("Merge order wrong: %+v", got)
	}
}
