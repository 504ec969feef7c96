package syslog

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/faultmodel"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func sampleCE() mce.CERecord {
	return mce.CERecord{
		Time:     time.Date(2019, 5, 20, 13, 4, 55, 0, time.UTC),
		Node:     topology.NewNodeID(3, 11, 2),
		Socket:   1,
		Slot:     9, // "J"
		Rank:     1,
		Bank:     5,
		RowRaw:   0x2f3a,
		Col:      0x4d,
		BitPos:   0x1e21,
		Addr:     0x12345678,
		Syndrome: 0x4d,
	}
}

func sampleDUE() mce.DUERecord {
	return mce.DUERecord{
		Time:  time.Date(2019, 8, 24, 2, 11, 9, 0, time.UTC),
		Node:  topology.NewNodeID(0, 3, 1),
		Addr:  0xabcdef0,
		Cause: faultmodel.CauseMachineCheck,
		Fatal: true,
	}
}

func sampleHET() het.Record {
	return het.Record{
		Time:     simtime.HETStart.Add(3 * time.Hour),
		Node:     topology.NewNodeID(12, 0, 0),
		Type:     het.UncorrectableECC,
		Severity: het.SeverityNonRecoverable,
		Addr:     0x777000,
	}
}

func TestCERoundTrip(t *testing.T) {
	line := FormatCE(sampleCE())
	p, err := ParseLine(line)
	if err != nil {
		t.Fatalf("ParseLine(%q): %v", line, err)
	}
	if p.Kind != KindCE {
		t.Fatalf("Kind = %v", p.Kind)
	}
	if p.CE != sampleCE() {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", p.CE, sampleCE())
	}
}

func TestDUERoundTrip(t *testing.T) {
	p, err := ParseLine(FormatDUE(sampleDUE()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindDUE || p.DUE != sampleDUE() {
		t.Errorf("round trip mismatch: %+v", p.DUE)
	}
}

func TestHETRoundTrip(t *testing.T) {
	p, err := ParseLine(FormatHET(sampleHET()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindHET || p.HET != sampleHET() {
		t.Errorf("round trip mismatch: %+v", p.HET)
	}
	// HET record without address.
	r := sampleHET()
	r.Addr = 0
	p, err = ParseLine(FormatHET(r))
	if err != nil || p.HET != r {
		t.Errorf("addressless HET round trip: %+v, %v", p.HET, err)
	}
}

func TestCERoundTripProperty(t *testing.T) {
	f := func(slot8, rank1, bank4 uint8, row16, col16, bit16 uint16, addr32 uint32, syn uint8, node16 uint16, sec32 uint32) bool {
		slot := topology.Slot(int(slot8) % topology.SlotsPerNode)
		cell := topology.CellAddr{
			Node: topology.NodeID(int(node16) % topology.Nodes),
			Slot: slot,
			Rank: int(rank1) % topology.RanksPerDIMM,
			Bank: int(bank4) % topology.BanksPerRank,
			Row:  int(row16) % topology.RowsPerBank,
			Col:  int(col16) % topology.ColsPerRow,
		}
		r := mce.CERecord{
			Time:     simtime.StudyStart.Add(time.Duration(sec32%20000000) * time.Second),
			Node:     cell.Node,
			Socket:   slot.Socket(),
			Slot:     slot,
			Rank:     cell.Rank,
			Bank:     cell.Bank,
			RowRaw:   cell.Row,
			Col:      cell.Col,
			BitPos:   int(bit16)&^0x3ff | int(bit16)%(topology.MaxLineBitPosition+1),
			Addr:     topology.EncodePhysAddr(cell, 0),
			Syndrome: syn,
		}
		p, err := ParseLine(FormatCE(r))
		return err == nil && p.Kind == KindCE && p.CE == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestOtherLinesIgnored(t *testing.T) {
	for _, line := range []string{
		"",
		"2019-05-20T13:04:55Z astra-r03c11n2 kernel: usb 1-1: new high-speed USB device",
		"random chatter with no structure",
		"2019-05-20T13:04:55Z astra-r03c11n2 slurmd[1234]: launching job 42",
	} {
		p, err := ParseLine(line)
		if err != nil || p.Kind != KindOther {
			t.Errorf("line %q: kind %v err %v", line, p.Kind, err)
		}
	}
}

func TestCorruptRecordLinesRejected(t *testing.T) {
	good := FormatCE(sampleCE())
	corruptions := map[string]string{
		"bad-timestamp":     strings.Replace(good, "2019-", "20XX-", 1),
		"bad-host":          strings.Replace(good, "astra-r03c11n2", "astra-rXXc11n2", 1),
		"missing-field":     strings.Replace(good, " syndrome=0x4d", "", 1),
		"bad-slot":          strings.Replace(good, "slot=J", "slot=Z", 1),
		"socket-mismatch":   strings.Replace(good, "socket=1", "socket=0", 1),
		"rank-out-of-range": strings.Replace(good, "rank=1", "rank=7", 1),
		"bank-out-of-range": strings.Replace(good, "bank=5", "bank=99", 1),
		"garbage-value":     strings.Replace(good, "col=0x04d", "col=0xZZ", 1),
		"dup-field":         good + " rank=1",
		"truncated":         good[:40],
	}
	for name, line := range corruptions {
		if _, err := ParseLine(line); err == nil {
			// "truncated" may degrade to KindOther, which is acceptable
			// only if the marker was cut off.
			if p, _ := ParseLine(line); p.Kind == KindOther {
				continue
			}
			t.Errorf("%s: corrupt line accepted: %q", name, line)
		}
	}
}

func TestCorruptDUEAndHETRejected(t *testing.T) {
	due := FormatDUE(sampleDUE())
	for name, line := range map[string]string{
		"bad-cause": strings.Replace(due, "uncorrectableMachineCheckException", "meteorStrike", 1),
		"bad-fatal": strings.Replace(due, "fatal=1", "fatal=2", 1),
	} {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("DUE %s accepted: %q", name, line)
		}
	}
	hetLine := FormatHET(sampleHET())
	for name, line := range map[string]string{
		"bad-event":    strings.Replace(hetLine, "uncorrectableECC", "nonsense", 1),
		"bad-severity": strings.Replace(hetLine, "NON-RECOVERABLE", "SEVERE", 1),
	} {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("HET %s accepted: %q", name, line)
		}
	}
}

func TestScanner(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(FormatCE(sampleCE()) + "\n")
	sb.WriteString("2019-05-20T13:05:00Z astra-r03c11n2 kernel: unrelated message\n")
	sb.WriteString(FormatDUE(sampleDUE()) + "\n")
	sb.WriteString(strings.Replace(FormatCE(sampleCE()), "slot=J", "slot=Q", 1) + "\n") // malformed
	sb.WriteString(FormatHET(sampleHET()) + "\n")

	sc := NewScanner(strings.NewReader(sb.String()))
	var kinds []Kind
	for sc.Scan() {
		kinds = append(kinds, sc.Record().Kind)
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	want := []Kind{KindCE, KindDUE, KindHET}
	if len(kinds) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("record %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	stats := sc.Stats()
	if stats.Lines != 5 || stats.CEs != 1 || stats.DUEs != 1 || stats.HETs != 1 || stats.Other != 1 || stats.Malformed != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestScannerEmptyInput(t *testing.T) {
	sc := NewScanner(strings.NewReader(""))
	if sc.Scan() {
		t.Error("Scan on empty input should return false")
	}
	if sc.Err() != nil {
		t.Error("empty input is not an error")
	}
}
