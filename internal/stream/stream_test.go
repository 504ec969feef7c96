package stream_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/dataset"
	"repro/internal/mce"
	"repro/internal/stream"
	"repro/internal/topology"
)

var (
	fixOnce sync.Once
	fixDS   *dataset.Dataset
	fixErr  error
)

// fixture builds one small dataset shared by every test in the package.
func fixture(t testing.TB) *dataset.Dataset {
	t.Helper()
	fixOnce.Do(func() {
		cfg := dataset.DefaultConfig(47)
		cfg.Nodes = 48
		fixDS, fixErr = dataset.Build(context.Background(), cfg)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDS
}

func mustCluster(t testing.TB, records []mce.CERecord, cfg core.ClusterConfig) []core.Fault {
	t.Helper()
	faults, err := core.Cluster(context.Background(), records, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return faults
}

// dirtyRecords replays the fixture through syslog + corruption + the
// hardened scanner at the given corruption rate, yielding the exact
// record stream a damaged production log would produce.
func dirtyRecords(t *testing.T, rate float64) []mce.CERecord {
	t.Helper()
	var raw bytes.Buffer
	if err := fixture(t).WriteSyslog(&raw, 100); err != nil {
		t.Fatal(err)
	}
	var dirty bytes.Buffer
	if _, err := corrupt.New(corrupt.Uniform(99, rate)).Process(bytes.NewReader(raw.Bytes()), &dirty); err != nil {
		t.Fatal(err)
	}
	ces, _, _, _, err := dataset.ReadSyslogPolicy(bytes.NewReader(dirty.Bytes()), dataset.IngestPolicy{
		DedupWindow:      64,
		ReorderWindow:    5 * time.Minute,
		MaxMalformedFrac: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ces
}

// TestStreamMatchesBatch is the differential guarantee: replaying a
// record stream through the engine at every micro-batch size — fixed,
// or seeded random between 1 and 513 — with live queries interleaved
// between batches yields exactly the faults of the batch clusterer, and
// the engine's incremental aggregates match the batch analyses (mode
// fractions, FIT). The clean fixture runs against the batch clusterer
// at 1 and 4 workers; its 1% and 100% corrupted twins, fed through the
// hardened scanner, run the same schedules.
func TestStreamMatchesBatch(t *testing.T) {
	records := fixture(t).CERecords
	if len(records) < 1000 {
		t.Fatalf("weak fixture: only %d records", len(records))
	}
	for _, clusterWorkers := range []int{1, 4} {
		checkStreamMatchesBatch(t, records, clusterWorkers)
	}
	for _, in := range []struct {
		name string
		rate float64
	}{
		{"corrupt1pct", 0.01},
		{"corrupt100pct", 1.0},
	} {
		t.Run(in.name, func(t *testing.T) {
			checkStreamMatchesBatch(t, dirtyRecords(t, in.rate), 1)
		})
	}
}

// checkStreamMatchesBatch runs every replay schedule over records as a
// subtest of t, against core.Cluster at clusterWorkers workers.
func checkStreamMatchesBatch(t *testing.T, records []mce.CERecord, clusterWorkers int) {
	t.Helper()
	dimms := 48 * topology.SlotsPerNode
	cc := core.DefaultClusterConfig()
	cc.Parallelism = clusterWorkers
	want := mustCluster(t, records, cc)
	wantBreakdown := core.BreakdownByMode(records, want)
	wantRates := core.AnalyzeFaultRates(want, dimms, core.StudyWindow())

	for _, tc := range []struct {
		name  string
		batch int // records per IngestBatch; 1 = Ingest; 0 = random 1–513
	}{
		{"one-at-a-time", 1},
		{"batch3", 3},
		{"batch64", 64},
		{"batch997", 997},
		{"all-serial", len(records)},
		{"random", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(records))))
			e := stream.New(stream.Config{
				Cluster: core.ClusterConfig{Parallelism: clusterWorkers},
				DIMMs:   dimms,
			})
			for lo, n := 0, 0; lo < len(records); n++ {
				size := tc.batch
				if size == 0 {
					size = 1 + rng.Intn(513)
				}
				hi := min(lo+size, len(records))
				if size == 1 {
					e.Ingest(records[lo])
				} else {
					e.IngestBatch(records[lo:hi])
				}
				lo = hi
				// Interleaved queries must not perturb later results, and a
				// view built between batches answers as the engine does.
				if n%7 == 0 {
					sum, fit := e.Summary(), e.WindowedFIT()
					if v := e.LiveView(); v.Summary != sum || v.FIT != fit || v.Summary.Records != lo {
						t.Fatalf("view after %d records diverges from the engine:\n got %+v\nwant %+v", lo, v.Summary, sum)
					}
				}
			}
			got := e.Snapshot()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stream faults diverge from batch: got %d faults, want %d", len(got), len(want))
			}
			sum := e.Summary()
			if sum.Records != len(records) {
				t.Fatalf("Summary.Records = %d, want %d", sum.Records, len(records))
			}
			if sum.FaultsByMode != wantBreakdown.FaultsByMode {
				t.Fatalf("FaultsByMode = %v, want %v", sum.FaultsByMode, wantBreakdown.FaultsByMode)
			}
			if sum.ErrorsByMode != wantBreakdown.ErrorsByMode {
				t.Fatalf("ErrorsByMode = %v, want %v", sum.ErrorsByMode, wantBreakdown.ErrorsByMode)
			}
			if sum.Faults != len(want) {
				t.Fatalf("Summary.Faults = %d, want %d", sum.Faults, len(want))
			}
			if got := e.FaultRates(core.StudyWindow()); got != wantRates {
				t.Fatalf("FaultRates = %+v, want %+v", got, wantRates)
			}
		})
	}
}

// TestStreamReplayReproducesEngine pins the engine's replayable-state
// contract: IngestBatch(e.Records()) into a fresh engine reproduces the
// same snapshot — the property astrad's checkpoint/restore is built on.
func TestStreamReplayReproducesEngine(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)
	want := e.Snapshot()

	replay := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	replay.IngestBatch(e.Records())
	if got := replay.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("replayed engine diverges from original")
	}
	if got, want := replay.Summary(), e.Summary(); got != want {
		t.Fatalf("replayed summary %+v != %+v", got, want)
	}
}

// TestStreamDirtyDifferential feeds the engine from the same hardened
// scanner path as batch ingest, over a syslog corrupted at 1%: the stream
// and batch paths must agree exactly (same faults, same FIT, same
// Degraded accounting), because both consume the scanner's emit order.
// At 100% corruption both must degrade identically instead of panicking.
func TestStreamDirtyDifferential(t *testing.T) {
	ds := fixture(t)
	var raw bytes.Buffer
	if err := ds.WriteSyslog(&raw, 100); err != nil {
		t.Fatal(err)
	}
	pol := dataset.IngestPolicy{
		DedupWindow:      64,
		ReorderWindow:    5 * time.Minute,
		MaxMalformedFrac: -1,
	}
	dimms := 48 * topology.SlotsPerNode

	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"corrupt1pct", 0.01},
		{"corrupt100pct", 1.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dirty bytes.Buffer
			if _, err := corrupt.New(corrupt.Uniform(99, tc.rate)).Process(bytes.NewReader(raw.Bytes()), &dirty); err != nil {
				t.Fatal(err)
			}
			ces, _, _, rep, err := dataset.ReadSyslogPolicy(bytes.NewReader(dirty.Bytes()), pol)
			if err != nil {
				t.Fatal(err)
			}
			if tc.rate <= 0.01 && rep.Malformed == 0 {
				t.Fatal("harness has no signal: no malformed lines at 1% corruption")
			}

			want := mustCluster(t, ces, core.DefaultClusterConfig())
			wantRates := core.AnalyzeFaultRates(want, dimms, core.StudyWindow())

			e := stream.New(stream.Config{DIMMs: dimms})
			for _, r := range ces {
				e.Ingest(r)
			}
			if got := e.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("dirty stream faults diverge: got %d, want %d", len(got), len(want))
			}
			gotRates := e.FaultRates(core.StudyWindow())
			if gotRates != wantRates {
				t.Fatalf("dirty FaultRates = %+v, want %+v", gotRates, wantRates)
			}
			if gotRates.Degraded != wantRates.Degraded {
				t.Fatalf("Degraded accounting diverges: stream %v, batch %v", gotRates.Degraded, wantRates.Degraded)
			}
			wfit := e.WindowedFIT()
			if wantDeg := len(ces) == 0; wfit.Degraded != wantDeg {
				t.Fatalf("WindowedFIT.Degraded = %v, want %v", wfit.Degraded, wantDeg)
			}
		})
	}
}

// TestStreamModeEscalation drives one bank through the full escalation
// ladder — single-bit → single-word → single-column → single-bank — with
// a synthetic record sequence whose classification at every step is known
// by construction, and checks the engine observes each transition.
func TestStreamModeEscalation(t *testing.T) {
	base := time.Date(2019, 6, 1, 12, 0, 0, 0, time.UTC)
	rec := func(i int, addr topology.PhysAddr, col, bit int) mce.CERecord {
		return mce.CERecord{
			Time: base.Add(time.Duration(i) * time.Minute),
			Node: 7, Slot: 2, Rank: 0, Bank: 3,
			Col: col, RowRaw: 11, BitPos: bit, Addr: addr,
		}
	}
	steps := []struct {
		r    mce.CERecord
		want core.FaultMode
	}{
		{rec(0, 0x1000, 5, 3), core.ModeSingleBit},    // one word, one bit
		{rec(1, 0x1000, 5, 7), core.ModeSingleWord},   // same word, second bit
		{rec(2, 0x2000, 5, 3), core.ModeSingleColumn}, // second word, same column
		{rec(3, 0x3000, 9, 3), core.ModeSingleBank},   // third word, scattered columns
	}
	e := stream.New(stream.Config{})
	for i, s := range steps {
		e.Ingest(s.r)
		sum := e.Summary()
		worst := -1
		for m := range sum.FaultsByMode {
			if sum.FaultsByMode[m] > 0 {
				worst = m
			}
		}
		if core.FaultMode(worst) != s.want {
			t.Fatalf("step %d: worst mode = %v, want %v", i, core.FaultMode(worst), s.want)
		}
	}
	if got := e.Summary().Escalations; got != 3 {
		t.Fatalf("Escalations = %d, want 3", got)
	}
}

// TestStreamNodeStatus checks the per-node rolling view against direct
// counts.
func TestStreamNodeStatus(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)

	perNode := map[topology.NodeID]int{}
	for _, r := range ds.CERecords {
		perNode[r.Node]++
	}
	faults := e.Snapshot()
	nodeFaults := map[topology.NodeID]int{}
	for i := range faults {
		nodeFaults[faults[i].Node]++
	}
	checked := 0
	for id, want := range perNode {
		st, ok := e.NodeStatus(id)
		if !ok {
			t.Fatalf("node %v missing from engine", id)
		}
		if st.CEs != want {
			t.Fatalf("node %v CEs = %d, want %d", id, st.CEs, want)
		}
		if len(st.Faults) != nodeFaults[id] {
			t.Fatalf("node %v faults = %d, want %d", id, len(st.Faults), nodeFaults[id])
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	if _, ok := e.NodeStatus(topology.NodeID(47 * 1000)); ok {
		t.Fatal("NodeStatus reported a node that never erred")
	}
}

// TestStreamIngestSteadyStateAllocs pins the hot-path property the
// serving daemon depends on: once the fault population is warm (every
// bank, word and node already seen), ingest does not allocate per record
// (amortized — slice growth over thousands of records rounds to zero).
func TestStreamIngestSteadyStateAllocs(t *testing.T) {
	ds := fixture(t)
	n := len(ds.CERecords)
	if n > 20000 {
		n = 20000
	}
	recs := ds.CERecords[:n]
	e := stream.New(stream.Config{})
	e.IngestBatch(recs) // warm every bank/word/node
	e.Summary()         // clear the dirty set

	i := 0
	avg := testing.AllocsPerRun(10000, func() {
		e.Ingest(recs[i%len(recs)])
		i++
	})
	if avg >= 1 {
		t.Fatalf("steady-state ingest allocates %.3f per record, want amortized 0", avg)
	}
}
