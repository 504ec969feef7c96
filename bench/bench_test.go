package main

import (
	"context"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
)

// tinyScale shrinks every workload so the smoke test runs in seconds: a
// 32-node fleet of 12 k records, a live-tail log that wraps around, one
// set-up repetition.
var tinyScale = scale{
	GenSeed:       3,
	Nodes:         32,
	RestartLines:  20_000,
	TailRate:      5_000,
	TailChunk:     10 * time.Millisecond,
	TailWarmLines: 500,
	TailLead:      500 * time.Millisecond,
	SetupReps:     1,
}

// TestWorkloadsSmoke runs every workload traced at tiny scale. A traced
// run drives the real binaries through every correctness gate (batch
// stdout against the in-process reference, live-tail's final answer
// against the reference scan and clustering, live-restart's warm answer
// against its cold one) and then replays the workload in process, so the
// ledger invariant is checked on every lane too.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs astrareport and astrad")
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bin := t.TempDir()
	if err := buildSUT(ctx, "..", bin); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAll)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := time.Second
			if w.name == "live-tail" {
				seconds = 3 * time.Second
			}
			rn := &runner{bin: bin, work: t.TempDir(), sc: tinyScale, seed: 1, seconds: seconds,
				trace: true, rec: newRecorder(), speed: newSpeedometer(), log: io.Discard}
			res := newResult(w.name, 1, int(seconds/time.Second), true)
			if err := w.run(rn, ctx, res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			for _, trace := range []bool{false, true} {
				res.Trace = trace
				if _, err := summaryLine(res, spec); err != nil {
					t.Error(err)
				}
			}
			for id := 1; id <= rn.traces; id++ {
				lg, err := rn.rec.account(id)
				if err != nil {
					t.Fatalf("trace %d: %v", id, err)
				}
				for _, l := range lg.lanes {
					if l.unattributed < 0 || l.spans+l.unattributed != l.wall {
						t.Errorf("trace %d lane %s: spans %v + unattributed %v != wall %v", id, l.name, l.spans, l.unattributed, l.wall)
					}
				}
			}
		})
	}
}

// TestBenchFleet pins the benchmark's fleet to the band it was chosen
// from (see benchScale). A generator change that gives it a pathological
// node or a different volume fails here, and the fleet must be chosen
// again.
func TestBenchFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 256-node fleet")
	}
	ds, err := buildFleet(context.Background(), benchScale.GenSeed, benchScale.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if ev, rec := len(ds.Pop.CEs), len(ds.CERecords); ev < 140_000 || ev > 200_000 || rec < 140_000 || rec > 175_000 {
		t.Errorf("fleet %d: %d CE events, %d records; want 140-200 k events and 140-175 k records", benchScale.GenSeed, ev, rec)
	}
}

// TestRelabel pins what --seed does to a fleet: every record moves to
// another node by one permutation, so per-node volumes are the same
// multiset, CE order stays canonical, and two seeds give two logs.
func TestRelabel(t *testing.T) {
	ctx := context.Background()
	perNode := func(seed uint64) ([]int, *dataset.Dataset) {
		ds, err := seededFleet(ctx, tinyScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, tinyScale.Nodes)
		for i, r := range ds.CERecords {
			counts[r.Node]++
			if i > 0 && r.Time.Before(ds.CERecords[i-1].Time) {
				t.Fatalf("seed %d: CE records out of time order at %d", seed, i)
			}
		}
		return counts, ds
	}
	a, dsA := perNode(1)
	b, dsB := perNode(2)
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 put the same volume on every node")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("relabeling changed the per-node volumes")
	}
	if len(dsA.DUERecords) != len(dsB.DUERecords) || len(dsA.HETRecords) != len(dsB.HETRecords) {
		t.Error("relabeling changed the DUE or HET record counts")
	}
}

// TestGatesRejectWrongAnswers pins that the live gates see a wrong
// answer: a record count, fault count or mode mix that differs from the
// reference, and a warm answer that differs in anything but the
// per-process escalation counter.
func TestGatesRejectWrongAnswers(t *testing.T) {
	bd := []byte(`{"records": 10, "faults": 2, "faultsByMode": [1, 1, 0, 0, 0], "escalations": 3}`)
	fl := []byte(`{"count": 2, "faults": [{"mode": "single-bit"}, {"mode": "single-word"}]}`)
	want := expected{records: 10, faults: 2}
	want.byMode[0], want.byMode[1] = 1, 1
	if bad := checkAnswer(want, bd, fl); len(bad) != 0 {
		t.Fatalf("matching answer rejected: %v", bad)
	}
	for _, wrong := range []expected{
		{records: 11, faults: 2, byMode: want.byMode},
		{records: 10, faults: 3, byMode: want.byMode},
		{records: 10, faults: 2, byMode: [5]int{2, 0, 0, 0, 0}},
	} {
		if len(checkAnswer(wrong, bd, fl)) == 0 {
			t.Errorf("answer accepted against wrong reference %+v", wrong)
		}
	}
	if !sameBreakdown(bd, []byte(`{"records": 10, "faults": 2, "faultsByMode": [1, 1, 0, 0, 0], "escalations": 0}`)) {
		t.Error("escalation counter alone made answers differ")
	}
	if sameBreakdown(bd, []byte(`{"records": 9, "faults": 2, "faultsByMode": [1, 1, 0, 0, 0], "escalations": 3}`)) {
		t.Error("different record counts compared equal")
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to Python's
// statistics.quantiles(xs, n=4), which outside checkers use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
