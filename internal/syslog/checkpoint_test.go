package syslog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestCheckpointRestoreRoundTripsByteIdentical is the regression test for
// the restore/checkpoint identity: at every possible checkpoint position —
// explicitly including positions where the reorder heap is non-empty — a
// scanner that Restores a checkpoint and immediately Checkpoints again
// must produce byte-identical serialized state. A daemon relies on this to
// treat its state file as content-addressed: restart + immediate
// checkpoint must not dirty the file.
func TestCheckpointRestoreRoundTripsByteIdentical(t *testing.T) {
	in := resumeLog(t)
	cfg := ScanConfig{DedupWindow: 3, ReorderWindow: time.Minute}

	ref := NewScannerConfig(strings.NewReader(in), cfg)
	total := len(collect(t, ref))

	heapStops := 0
	for stop := 0; stop <= total; stop++ {
		first := NewScannerConfig(strings.NewReader(in), cfg)
		for i := 0; i < stop; i++ {
			if !first.Scan() {
				t.Fatalf("stop=%d: premature end", stop)
			}
		}
		cp := first.Checkpoint()
		if len(cp.pending) > 0 {
			heapStops++
		}
		data, err := cp.MarshalBinary()
		if err != nil {
			t.Fatalf("stop=%d: marshal: %v", stop, err)
		}

		second := NewScannerConfig(strings.NewReader(in[cp.Offset:]), cfg)
		if err := second.Restore(cp); err != nil {
			t.Fatalf("stop=%d: restore: %v", stop, err)
		}
		again, err := second.Checkpoint().MarshalBinary()
		if err != nil {
			t.Fatalf("stop=%d: re-marshal: %v", stop, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("stop=%d (pending=%d): restore+checkpoint diverges:\n--- first\n%s--- second\n%s",
				stop, len(cp.pending), data, again)
		}
	}
	if heapStops == 0 {
		t.Fatal("fixture never left the reorder heap non-empty at a checkpoint; the regression has no teeth")
	}
}

// TestCheckpointMarshalRoundTrip proves the serialized form carries the
// full resume contract: unmarshal on a different process's empty
// Checkpoint, restore, and the remaining record stream and final stats
// equal the uninterrupted scan's.
func TestCheckpointMarshalRoundTrip(t *testing.T) {
	in := resumeLog(t)
	cfg := ScanConfig{DedupWindow: 3, ReorderWindow: time.Minute}

	ref := NewScannerConfig(strings.NewReader(in), cfg)
	want := collect(t, ref)
	wantStats := ref.Stats()

	for stop := 0; stop <= len(want); stop++ {
		first := NewScannerConfig(strings.NewReader(in), cfg)
		var head []Parsed
		for i := 0; i < stop; i++ {
			if !first.Scan() {
				t.Fatalf("stop=%d: premature end", stop)
			}
			head = append(head, first.Record())
		}
		data, err := first.Checkpoint().MarshalBinary()
		if err != nil {
			t.Fatalf("stop=%d: marshal: %v", stop, err)
		}

		var cp Checkpoint
		if err := cp.UnmarshalBinary(data); err != nil {
			t.Fatalf("stop=%d: unmarshal: %v", stop, err)
		}
		second := NewScannerConfig(strings.NewReader(in[cp.Offset:]), cfg)
		if err := second.Restore(cp); err != nil {
			t.Fatalf("stop=%d: restore: %v", stop, err)
		}
		got := append(head, collect(t, second)...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stop=%d: resumed-from-bytes stream diverges", stop)
		}
		if st := second.Stats(); st != wantStats {
			t.Errorf("stop=%d: stats = %+v, want %+v", stop, st, wantStats)
		}
	}
}

// TestCheckpointKeepsSubSecondTimes pins that a persisted checkpoint keeps
// fractional seconds: records the reorder window holds across the
// checkpoint come back from MarshalBinary, UnmarshalBinary and Restore
// exactly as the uninterrupted scan delivers them.
func TestCheckpointKeepsSubSecondTimes(t *testing.T) {
	ce := FormatCE(sampleCE())
	var in string
	for _, ts := range []string{"2020-01-02T03:04:05.250Z", "2020-01-02T03:04:05.100Z", "2020-01-02T03:04:30.700Z", "2020-01-02T03:10:00Z"} {
		in += ts + ce[20:] + "\n"
	}
	cfg := ScanConfig{ReorderWindow: 5 * time.Minute}
	want := drainScanner(NewScannerConfig(strings.NewReader(in), cfg))

	sc := NewScannerConfig(strings.NewReader(in), cfg)
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}
	data, err := sc.Checkpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := cp.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	rest := NewScannerConfig(strings.NewReader(in[cp.Offset:]), cfg)
	if err := rest.Restore(cp); err != nil {
		t.Fatal(err)
	}
	got := drainScanner(rest)
	want.Records = want.Records[1:]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored scan diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointMarshalDeterministic pins marshal→unmarshal→marshal as the
// identity on bytes.
func TestCheckpointMarshalDeterministic(t *testing.T) {
	in := resumeLog(t)
	cfg := ScanConfig{DedupWindow: 3, ReorderWindow: time.Minute}
	sc := NewScannerConfig(strings.NewReader(in), cfg)
	for i := 0; i < 4; i++ {
		if !sc.Scan() {
			t.Fatal("fixture too short")
		}
	}
	data, err := sc.Checkpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := cp.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	again, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("marshal not deterministic:\n--- first\n%s--- second\n%s", data, again)
	}
}

// TestCheckpointUnmarshalRejectsCorruption exercises the error paths a
// daemon hits on a torn or foreign state file.
func TestCheckpointUnmarshalRejectsCorruption(t *testing.T) {
	in := resumeLog(t)
	cfg := ScanConfig{DedupWindow: 3, ReorderWindow: time.Minute}
	sc := NewScannerConfig(strings.NewReader(in), cfg)
	for i := 0; i < 4; i++ {
		if !sc.Scan() {
			t.Fatal("fixture too short")
		}
	}
	data, err := sc.Checkpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"bad header":  []byte("not a checkpoint\n"),
		"truncated":   data[:len(data)/2],
		"no newline":  data[:len(data)-1],
		"trailing":    append(append([]byte(nil), data...), "extra\n"...),
		"bad offset":  bytes.Replace(data, []byte("offset "), []byte("offset x"), 1),
		"neg offset":  bytes.Replace(data, []byte("offset "), []byte("offset -"), 1),
		"bad record":  bytes.Replace(data, []byte("EDAC"), []byte("EDCA"), 1),
		"bad recent":  bytes.Replace(data, []byte("recent 3"), []byte("recent 99"), 1),
		"short stats": bytes.Replace(data, []byte("stats "), []byte("stats 1 "), 1),
	}
	for name, corrupt := range cases {
		var cp Checkpoint
		if err := cp.UnmarshalBinary(corrupt); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", name)
		}
	}
}

// TestCheckpointUnmarshalRejectsRingPosition splices dedup-ring positions
// into a checkpoint whose ring is full (4 lines, next overwrite at 2) and
// into one with an empty ring. An out-of-range position must fail to
// load: restored, it made the next record line index past the ring and
// panic the scan. Every in-range position loads and scans.
func TestCheckpointUnmarshalRejectsRingPosition(t *testing.T) {
	var log strings.Builder
	ce := sampleCE()
	for i := 0; i < 6; i++ {
		ce.Addr++
		log.WriteString(FormatCE(ce) + "\n")
	}
	cfg := ScanConfig{DedupWindow: 4}
	sc := NewScannerConfig(strings.NewReader(log.String()), cfg)
	for sc.Scan() {
	}
	full, err := sc.Checkpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Checkpoint{}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(full, []byte("\nrpos 2\nmaxseen")) || !bytes.Contains(empty, []byte("\nrpos 0\n")) {
		t.Fatalf("fixture ring positions moved:\n%s\n%s", full, empty)
	}
	ce.Addr++
	next := FormatCE(ce) + "\n"
	for _, tc := range []struct {
		ring  string
		image []byte
		rpos  string
		ok    bool
	}{
		{"full", full, "0", true}, {"full", full, "3", true},
		{"full", full, "4", false}, {"full", full, "99", false}, {"full", full, "-1", false},
		{"empty", empty, "1", false}, {"empty", empty, "-1", false},
	} {
		data := bytes.Replace(tc.image, []byte("\nrpos 2\n"), []byte("\nrpos "+tc.rpos+"\n"), 1)
		data = bytes.Replace(data, []byte("\nrpos 0\n"), []byte("\nrpos "+tc.rpos+"\n"), 1)
		var cp Checkpoint
		err := cp.UnmarshalBinary(data)
		if (err == nil) != tc.ok {
			t.Errorf("rpos %s in the %s ring: UnmarshalBinary err = %v, want ok %v", tc.rpos, tc.ring, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		rs := NewScannerConfig(strings.NewReader(next), cfg)
		if err := rs.Restore(cp); err != nil {
			t.Fatal(err)
		}
		for rs.Scan() {
		}
		if rs.Stats().CEs != cp.Stats.CEs+1 {
			t.Errorf("rpos %s in the %s ring: restored scan released %d CEs, want %d", tc.rpos, tc.ring, rs.Stats().CEs, cp.Stats.CEs+1)
		}
	}
}
