package stream_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/colfmt"
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
// fractions, FIT). The clean fixture holds only single-bit faults, so a
// second clean fleet, whose faults span the bit, word, column and bank
// modes, runs under the row-clustering ablation (which turns its bank
// fault into a row fault). The fixture's 1% and 100% corrupted twins,
// fed through the hardened scanner, run the same schedules.
func TestStreamMatchesBatch(t *testing.T) {
	records := fixture(t).CERecords
	if len(records) < 1000 {
		t.Fatalf("weak fixture: only %d records", len(records))
	}
	checkStreamMatchesBatch(t, records, core.DefaultClusterConfig())
	cfg := dataset.DefaultConfig(65)
	cfg.Nodes = 48
	modes, err := dataset.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := core.DefaultClusterConfig()
	rows.RowClustering = true
	checkStreamMatchesBatch(t, modes.CERecords, rows)
	for _, in := range []struct {
		name string
		rate float64
	}{
		{"corrupt1pct", 0.01},
		{"corrupt100pct", 1.0},
	} {
		t.Run(in.name, func(t *testing.T) {
			checkStreamMatchesBatch(t, dirtyRecords(t, in.rate), core.DefaultClusterConfig())
		})
	}
}

// checkStreamMatchesBatch runs every replay schedule over records as a
// subtest of t, against core.Cluster under the same thresholds cc.
func checkStreamMatchesBatch(t *testing.T, records []mce.CERecord, cc core.ClusterConfig) {
	t.Helper()
	dimms := 48 * topology.SlotsPerNode
	want := mustCluster(t, records, cc)
	wantBreakdown := core.BreakdownByMode(records, want)
	wantRates := core.AnalyzeFaultRates(want, dimms, core.StudyWindow())

	for _, tc := range []struct {
		name  string
		batch int // records per IngestBatch; 0 = random 1–513
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
				Cluster: cc,
				DIMMs:   dimms,
			})
			for lo, n := 0, 0; lo < len(records); n++ {
				size := tc.batch
				if size == 0 {
					size = 1 + rng.Intn(513)
				}
				hi := min(lo+size, len(records))
				e.IngestBatch(records[lo:hi])
				lo = hi
				// Interleaved queries must not perturb later results, and a
				// view built between batches answers as the engine does.
				if n%7 == 0 {
					if v, sum := e.LiveView(), e.Summary(); v.Summary != sum || v.Summary.Records != lo {
						t.Fatalf("view after %d records diverges from the engine:\n got %+v\nwant %+v", lo, v.Summary, sum)
					}
				}
			}
			v := e.LiveView()
			if got := v.Faults; !reflect.DeepEqual(got, want) {
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
			if got := v.FaultRates(dimms, core.StudyWindow()); got != wantRates {
				t.Fatalf("FaultRates = %+v, want %+v", got, wantRates)
			}
		})
	}
}

// withExotics interleaves fixture records with records the record log
// cannot pack and must keep whole: a node id past 16 bits, a negative
// rank, a non-UTC time, a monotonic time and a socket that is not its
// slot's. Each is a fixture record with one field changed, so the
// engine clusters it like any other.
func withExotics(recs []mce.CERecord) []mce.CERecord {
	now := time.Now()
	exotic := []func(r mce.CERecord) mce.CERecord{
		func(r mce.CERecord) mce.CERecord { r.Node += 1 << 16; return r },
		func(r mce.CERecord) mce.CERecord { r.Rank = -1; return r },
		func(r mce.CERecord) mce.CERecord { r.Time = r.Time.In(time.FixedZone("UTC+3", 3*3600)); return r },
		func(r mce.CERecord) mce.CERecord { r.Time = now.Add(r.Time.Sub(now)); return r },
		func(r mce.CERecord) mce.CERecord { r.Socket = 1 - r.Slot.Socket(); return r },
	}
	out := make([]mce.CERecord, 0, len(recs)+len(recs)/50+1)
	for i, r := range recs {
		out = append(out, r)
		if i%50 == 7 {
			out = append(out, exotic[i/50%len(exotic)](r))
		}
	}
	return out
}

// TestStreamReplayReproducesEngine pins the engine's replayable-state
// contract: IngestBatch(e.Records()) into a fresh engine reproduces the
// same snapshot — the property astrad's checkpoint/restore is built on.
// The input interleaves exotic records with the fixture: Records() must
// return every record exactly (== on mce.CERecord, time.Time
// representation included), whether the log packed it or kept it whole.
func TestStreamReplayReproducesEngine(t *testing.T) {
	in := withExotics(fixture(t).CERecords)
	mono := false
	for _, r := range in {
		mono = mono || r.Time != r.Time.Round(0) // Round(0) strips the monotonic reading
	}
	if !mono {
		t.Fatal("no monotonic time among the exotic records")
	}
	e := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	e.IngestBatch(in[:len(in)/3])
	for i := len(in) / 3; i < len(in)/2; i++ {
		e.IngestBatch(in[i : i+1])
	}
	e.IngestBatch(in[len(in)/2:])
	want := e.LiveView().Faults

	recs := e.Records()
	if len(recs) != len(in) {
		t.Fatalf("Records() holds %d records, ingested %d", len(recs), len(in))
	}
	for i := range in {
		if recs[i] != in[i] {
			t.Fatalf("Records()[%d] = %+v, ingested %+v", i, recs[i], in[i])
		}
	}
	replay := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	replay.IngestBatch(recs)
	if got := replay.LiveView().Faults; !reflect.DeepEqual(got, want) {
		t.Fatal("replayed engine diverges from original")
	}
	if got, want := replay.Summary(), e.Summary(); got != want {
		t.Fatalf("replayed summary %+v != %+v", got, want)
	}
}

// TestRecordLogCaptureWhileIngesting pins the checkpoint handle's
// lock-free contract: a handle taken while another goroutine ingests
// encodes, with no lock held, to exactly the colfmt.Write of the
// matching Records() prefix followed by the handle's tail. Run it under
// -race: the encode reads rows the ingest goroutine's chunk may still
// be filling above the captured length.
func TestRecordLogCaptureWhileIngesting(t *testing.T) {
	in := withExotics(fixture(t).CERecords)
	for len(in) < 16*1024 { // span many log chunks
		in = append(in, in...)
	}
	tail := in[5:9:9]
	e := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 0; lo < len(in); lo += 31 {
			e.IngestBatch(in[lo:min(lo+31, len(in))])
		}
	}()
	type capture struct {
		n    int
		data []byte
	}
	var caps []capture
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		h := e.RecordLog(tail)
		var buf bytes.Buffer
		if err := colfmt.WriteCE(&buf, h); err != nil {
			t.Fatal(err)
		}
		caps = append(caps, capture{h.Len() - len(tail), buf.Bytes()})
	}
	all := e.Records()
	for _, c := range caps {
		var want bytes.Buffer
		recs := append(all[:c.n:c.n], tail...)
		if err := colfmt.Write(&want, colfmt.Records{CEs: recs}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.data, want.Bytes()) {
			t.Fatalf("handle at %d records encodes differently from colfmt.Write over Records()[:%d] + tail", c.n, c.n)
		}
	}
	t.Logf("%d captures raced the ingest of %d records", len(caps), len(in))
}

// TestIngestBatchBytesPerRecord caps the heap an engine costs per
// ingested record, allocated and kept, for IngestBatch of the fixture
// into a fresh engine. The record log is most of it: mce.CERecord
// slices (104 B a record, regrown by copying) cost 239 B allocated and
// 181 B kept here; packed 32-byte rows in fixed chunks cost 180 and 150.
func TestIngestBatchBytesPerRecord(t *testing.T) {
	const maxAlloc, maxKept = 210, 150
	recs := fixture(t).CERecords
	var before, after, held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	e.IngestBatch(recs)
	runtime.ReadMemStats(&after)
	// Kept is the heap that dropping the engine frees, read across two
	// back-to-back GCs: a reading against the heap before the engine
	// existed would also count whatever the rest of the process freed or
	// kept in between.
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(e)
	e = nil
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	n := float64(len(recs))
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / n
	live := float64(int64(held.HeapAlloc)-int64(dropped.HeapAlloc)) / n
	t.Logf("IngestBatch of %d records: %.1f B/record allocated, %.1f kept", len(recs), alloc, live)
	if alloc > maxAlloc || live > maxKept {
		t.Fatalf("IngestBatch of %d records: %.1f B/record allocated (max %d), %.1f kept (max %d)",
			len(recs), alloc, maxAlloc, live, maxKept)
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
			for i := range ces {
				e.IngestBatch(ces[i : i+1])
			}
			v := e.LiveView()
			if got := v.Faults; !reflect.DeepEqual(got, want) {
				t.Fatalf("dirty stream faults diverge: got %d, want %d", len(got), len(want))
			}
			gotRates := v.FaultRates(dimms, core.StudyWindow())
			if gotRates != wantRates {
				t.Fatalf("dirty FaultRates = %+v, want %+v", gotRates, wantRates)
			}
			if gotRates.Degraded != wantRates.Degraded {
				t.Fatalf("Degraded accounting diverges: stream %v, batch %v", gotRates.Degraded, wantRates.Degraded)
			}
			if wantDeg := len(ces) == 0; v.FIT.Degraded != wantDeg {
				t.Fatalf("View.FIT.Degraded = %v, want %v", v.FIT.Degraded, wantDeg)
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
		e.IngestBatch([]mce.CERecord{s.r})
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

// TestStreamNodeStatus checks the view's per-node status against direct
// counts over the time-ordered records: CEs, first and last times, the
// CEs in the default window's buckets ending at the newest record, and
// the node's faults as a per-node filter of core.Cluster's.
func TestStreamNodeStatus(t *testing.T) {
	ds := fixture(t)
	e := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	e.IngestBatch(ds.CERecords)
	v := e.LiveView()

	type counts struct {
		ces, window int
		first, last time.Time
	}
	bucket := int64(stream.DefaultWindow / stream.DefaultRateBuckets)
	head := v.Summary.Last.UnixNano() / bucket
	perNode := map[topology.NodeID]*counts{}
	for _, r := range ds.CERecords {
		c := perNode[r.Node]
		if c == nil {
			c = &counts{first: r.Time, last: r.Time}
			perNode[r.Node] = c
		}
		c.ces++
		if b := r.Time.UnixNano() / bucket; b > head-stream.DefaultRateBuckets && b <= head {
			c.window++
		}
		if r.Time.Before(c.first) {
			c.first = r.Time
		}
		if r.Time.After(c.last) {
			c.last = r.Time
		}
	}
	nodeFaults := map[topology.NodeID][]core.Fault{}
	for _, f := range mustCluster(t, ds.CERecords, core.DefaultClusterConfig()) {
		nodeFaults[f.Node] = append(nodeFaults[f.Node], f)
	}
	for id, want := range perNode {
		st, ok := v.NodeStatus(id)
		if !ok {
			t.Fatalf("node %v missing from the view", id)
		}
		if st.CEs != want.ces || !st.First.Equal(want.first) || !st.Last.Equal(want.last) || st.WindowCount != want.window {
			t.Fatalf("node %v status = %d CEs over [%v, %v], %d in the window; want %d over [%v, %v], %d",
				id, st.CEs, st.First, st.Last, st.WindowCount, want.ces, want.first, want.last, want.window)
		}
		if !reflect.DeepEqual(st.Faults, nodeFaults[id]) {
			t.Fatalf("node %v faults = %d, want core.Cluster's %d", id, len(st.Faults), len(nodeFaults[id]))
		}
	}
	if _, ok := v.NodeStatus(topology.NodeID(47 * 1000)); ok {
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
		j := i % len(recs)
		e.IngestBatch(recs[j : j+1])
		i++
	})
	if avg >= 1 {
		t.Fatalf("steady-state ingest allocates %.3f per record, want amortized 0", avg)
	}
}

// TestEngineIngestAllocs pins what a fresh engine allocates to ingest a
// whole record stream in one batch and classify it: astrad's restore
// path. A per-record allocation in the record log, the bank state or the
// aggregates trips the ceiling.
func TestEngineIngestAllocs(t *testing.T) {
	ds := fixture(t)
	n := testing.AllocsPerRun(3, func() {
		e := stream.New(stream.Config{DIMMs: ds.Config.Nodes * topology.SlotsPerNode})
		e.IngestBatch(ds.CERecords)
		if sum := e.Summary(); sum.Records != len(ds.CERecords) {
			panic("records lost")
		}
	})
	// 558 when pinned; the ceiling allows the larger of +10% and +16.
	if n > 613 {
		t.Errorf("fresh engine IngestBatch + Summary: %v allocs, want at most 613", n)
	}
}
