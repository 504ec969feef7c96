package stream_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/dataset"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/stream"
	"repro/internal/topology"
)

// shardedPartitionCounts is the grid every differential runs over: the
// degenerate single-partition case, counts that divide the 48-node
// fixture unevenly, the benchmark's 8, and more partitions than busy
// nodes.
var shardedPartitionCounts = []int{1, 2, 3, 8, 16}

// dirtyRecords replays the fixture through syslog + corruption + the
// hardened scanner at the given corruption rate, yielding the exact
// record stream a damaged production log would produce.
func dirtyRecords(t *testing.T, rate float64) []mce.CERecord {
	t.Helper()
	ds := fixture(t)
	var raw bytes.Buffer
	if err := ds.WriteSyslog(&raw, 100); err != nil {
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

// diffShardedSerial drives serial and sharded engines over the same
// stream in identical micro-batches and requires every public aggregate
// to match exactly.
func diffShardedSerial(t *testing.T, records []mce.CERecord, parts int, rng *rand.Rand) {
	t.Helper()
	dimms := 48 * topology.SlotsPerNode
	serial := stream.New(stream.Config{DIMMs: dimms})
	sharded := stream.NewSharded(stream.ShardedConfig{
		Partitions: parts,
		Engine:     stream.Config{DIMMs: dimms},
	})

	for lo := 0; lo < len(records); {
		batch := 1 + rng.Intn(257)
		hi := lo + batch
		if hi > len(records) {
			hi = len(records)
		}
		if batch == 1 {
			serial.Ingest(records[lo])
			sharded.Ingest(records[lo])
		} else {
			serial.IngestBatch(records[lo:hi])
			sharded.IngestBatch(records[lo:hi])
		}
		lo = hi
		// Interleaved queries must not perturb later results, and must
		// agree mid-stream, not only at the end.
		if rng.Intn(5) == 0 {
			if got, want := sharded.Summary(), serial.Summary(); got != want {
				t.Fatalf("mid-stream Summary diverges at %d records:\n got %+v\nwant %+v", lo, got, want)
			}
			if got, want := sharded.WindowedFIT(), serial.WindowedFIT(); got != want {
				t.Fatalf("mid-stream WindowedFIT diverges at %d records: got %+v want %+v", lo, got, want)
			}
		}
	}

	if got, want := sharded.Snapshot(), serial.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot diverges: got %d faults, want %d", len(got), len(want))
	}
	if got, want := sharded.Summary(), serial.Summary(); got != want {
		t.Fatalf("Summary diverges:\n got %+v\nwant %+v", got, want)
	}
	if got, want := sharded.WindowedFIT(), serial.WindowedFIT(); got != want {
		t.Fatalf("WindowedFIT diverges: got %+v want %+v", got, want)
	}
	if got, want := sharded.FaultRates(core.StudyWindow()), serial.FaultRates(core.StudyWindow()); got != want {
		t.Fatalf("FaultRates diverges: got %+v want %+v", got, want)
	}
	if got, want := sharded.Records(), serial.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Records diverges: got %d records, want %d", len(got), len(want))
	}
	if got, want := sharded.Features(), serial.Features(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Features diverges: got %d banks, want %d", len(got), len(want))
	}
	for id := topology.NodeID(0); id < 48; id++ {
		got, gok := sharded.NodeStatus(id)
		want, wok := serial.NodeStatus(id)
		if gok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("NodeStatus(%d) diverges: got %+v/%v want %+v/%v", id, got, gok, want, wok)
		}
	}
	gv, wv := sharded.LiveView(), serial.LiveView()
	if gv.Summary != wv.Summary || !reflect.DeepEqual(gv.Faults, wv.Faults) || gv.FIT != wv.FIT {
		t.Fatal("LiveView content diverges from serial view")
	}
}

// TestShardedMatchesSerial is the tentpole differential: at every
// partition count, over clean and corrupted streams, with randomized
// micro-batch sizes and interleaved queries, the sharded engine is
// bit-identical to one serial engine.
func TestShardedMatchesSerial(t *testing.T) {
	streams := []struct {
		name string
		recs []mce.CERecord
	}{
		{"clean", fixture(t).CERecords},
		{"corrupt1pct", dirtyRecords(t, 0.01)},
		{"corrupt100pct", dirtyRecords(t, 1.0)},
	}
	for _, sc := range streams {
		for _, parts := range shardedPartitionCounts {
			t.Run(sc.name+"/parts"+string(rune('0'+parts/10))+string(rune('0'+parts%10)), func(t *testing.T) {
				diffShardedSerial(t, sc.recs, parts, rand.New(rand.NewSource(int64(parts)*1000+int64(len(sc.recs)))))
			})
		}
	}
}

// TestShardedLanesMatchSerial pushes the whole stream through the
// admission lanes (Offer → per-partition queue → drainer goroutine) with
// capacity to spare, and requires the drained fleet to match the serial
// engine exactly — the lane path must be equivalence-preserving, not
// just lossy-but-accounted.
func TestShardedLanesMatchSerial(t *testing.T) {
	records := fixture(t).CERecords
	dimms := 48 * topology.SlotsPerNode
	serial := stream.New(stream.Config{DIMMs: dimms})
	serial.IngestBatch(records)

	for _, parts := range shardedPartitionCounts {
		s := stream.NewSharded(stream.ShardedConfig{
			Partitions: parts,
			Engine:     stream.Config{DIMMs: dimms},
		})
		if err := s.StartLanes(stream.LaneConfig{
			Queue:      overload.Config{Capacity: len(records) + 1},
			DrainBatch: 128,
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range records {
			if !s.Offer(r) {
				t.Fatalf("parts=%d: Offer shed with spare capacity", parts)
			}
		}
		s.CloseLanes()

		if got, want := s.Snapshot(), serial.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: lane-fed Snapshot diverges (%d vs %d faults)", parts, len(got), len(want))
		}
		if got, want := s.Summary(), serial.Summary(); got != want {
			t.Fatalf("parts=%d: lane-fed Summary diverges:\n got %+v\nwant %+v", parts, got, want)
		}
		if got, want := s.Records(), serial.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: lane-fed Records diverges", parts)
		}
	}
}

// TestShardedQuiesceRestart is the kill/restart differential over the
// lane path: quiesce mid-stream at arbitrary positions, capture the
// checkpoint image (the admitted prefix: ingested and queued records
// merged in global order), replay it into a fresh fleet with a DIFFERENT
// partition count, finish the stream, and require exact agreement with
// a serial engine that saw everything.
// This is the property astrad's v3 state file restores depend on: the
// image is partition-count independent.
func TestShardedQuiesceRestart(t *testing.T) {
	records := fixture(t).CERecords
	dimms := 48 * topology.SlotsPerNode
	serial := stream.New(stream.Config{DIMMs: dimms})
	serial.IngestBatch(records)
	want := serial.Snapshot()

	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ before, after int }{
		{1, 8}, {8, 3}, {3, 16}, {16, 1},
	} {
		cut := 1 + rng.Intn(len(records)-1)
		first := stream.NewSharded(stream.ShardedConfig{
			Partitions: tc.before,
			Engine:     stream.Config{DIMMs: dimms},
		})
		if err := first.StartLanes(stream.LaneConfig{
			Queue:      overload.Config{Capacity: len(records) + 1},
			DrainBatch: 32,
		}); err != nil {
			t.Fatal(err)
		}
		for _, r := range records[:cut] {
			first.Offer(r)
		}
		var image []mce.CERecord
		first.Quiesce(func(prefix []mce.CERecord, _ []overload.QueueStats) {
			image = prefix
		})
		first.CloseLanes()
		if len(image) != cut {
			t.Fatalf("%d→%d: checkpoint image has %d records, offered %d", tc.before, tc.after, len(image), cut)
		}
		if !reflect.DeepEqual(image, records[:cut]) {
			t.Fatalf("%d→%d: checkpoint image is not the offered prefix in order", tc.before, tc.after)
		}

		second := stream.NewSharded(stream.ShardedConfig{
			Partitions: tc.after,
			Engine:     stream.Config{DIMMs: dimms},
		})
		second.IngestBatch(image)
		second.IngestBatch(records[cut:])
		if got := second.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d→%d partitions at cut %d: restarted fleet diverges from serial", tc.before, tc.after, cut)
		}
		if got, wantSum := second.Summary(), serial.Summary(); got != wantSum {
			t.Fatalf("%d→%d: restarted Summary diverges:\n got %+v\nwant %+v", tc.before, tc.after, got, wantSum)
		}
	}
}

// TestShardedLaneShedBooks forces overload on the lane path (tiny
// queues, throttled drains) and checks the loss ledger balances exactly:
// every offered record is either ingested or counted shed, the fleet is
// marked Degraded, and per-lane stats reconcile with the fleet totals.
func TestShardedLaneShedBooks(t *testing.T) {
	records := fixture(t).CERecords
	if len(records) > 20000 {
		records = records[:20000]
	}
	for _, policy := range []overload.Policy{overload.PolicyReject, overload.PolicyDropOldest} {
		s := stream.NewSharded(stream.ShardedConfig{
			Partitions: 4,
			Engine:     stream.Config{DIMMs: 48 * topology.SlotsPerNode},
		})
		if err := s.StartLanes(stream.LaneConfig{
			Queue:         overload.Config{Capacity: 64, Policy: policy},
			DrainBatch:    16,
			DrainInterval: time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for _, r := range records {
			if !s.Offer(r) {
				rejected++
			}
		}
		s.CloseLanes()

		sum := s.Summary()
		if sum.Offered != len(records) {
			t.Fatalf("%v: Offered = %d, want %d (Records %d + Shed %d)", policy, sum.Offered, len(records), sum.Records, sum.Shed)
		}
		if sum.Shed == 0 {
			t.Fatalf("%v: harness has no signal: nothing shed under forced overload", policy)
		}
		if !sum.Degraded || !s.WindowedFIT().Degraded {
			t.Fatalf("%v: shed loss must mark Summary and WindowedFIT degraded", policy)
		}
		var laneShed, laneDrained uint64
		for _, st := range s.LaneStats() {
			laneShed += st.Shed
			laneDrained += st.Drained
		}
		if laneShed != s.Shed() || int(laneDrained) != sum.Records {
			t.Fatalf("%v: lane stats (shed %d, drained %d) disagree with fleet (shed %d, records %d)",
				policy, laneShed, laneDrained, s.Shed(), sum.Records)
		}
		if policy == overload.PolicyReject && rejected != int(laneShed) {
			t.Fatalf("reject: Offer refused %d but lanes shed %d", rejected, laneShed)
		}
	}
}

// TestShardedLaneIsolation pins the reason lanes exist: saturating one
// partition's lane sheds only that partition's records — the other
// partitions' lanes admit everything.
func TestShardedLaneIsolation(t *testing.T) {
	s := stream.NewSharded(stream.ShardedConfig{Partitions: 4, Engine: stream.Config{}})
	if err := s.StartLanes(stream.LaneConfig{
		Queue:         overload.Config{Capacity: 32},
		DrainBatch:    8,
		DrainInterval: 500 * time.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	// All records target one node → one partition → one lane.
	base := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	hot := mce.CERecord{Node: 7, Slot: 1, Bank: 2}
	for i := 0; i < 5000; i++ {
		hot.Time = base.Add(time.Duration(i) * time.Second)
		s.Offer(hot)
	}
	s.CloseLanes()
	stats := s.LaneStats()
	busy, shedTotal := 0, uint64(0)
	for _, st := range stats {
		if st.Offered > 0 {
			busy++
		}
		shedTotal += st.Shed
	}
	if busy != 1 {
		t.Fatalf("hot node spread across %d lanes, want 1", busy)
	}
	if shedTotal == 0 {
		t.Fatal("hot lane never shed under saturation")
	}
}

// TestShardedConcurrentViews hammers the fleet with concurrent batch
// ingest, lock-free view readers, and node queries under the race
// detector, checking every observed view is internally consistent (the
// epoch cut: fault list, summary, and seq all from one instant).
func TestShardedConcurrentViews(t *testing.T) {
	records := fixture(t).CERecords
	s := stream.NewSharded(stream.ShardedConfig{
		Partitions: 4,
		Engine:     stream.Config{DIMMs: 48 * topology.SlotsPerNode},
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(records); lo += 199 {
			hi := lo + 199
			if hi > len(records) {
				hi = len(records)
			}
			s.IngestBatch(records[lo:hi])
		}
		close(stop)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.LiveView()
				if v.Seq < lastSeq {
					t.Errorf("view seq went backwards: %d then %d", lastSeq, v.Seq)
					return
				}
				lastSeq = v.Seq
				if v.Summary.Faults != len(v.Faults) {
					t.Errorf("torn view: Summary.Faults=%d but %d faults in cut", v.Summary.Faults, len(v.Faults))
					return
				}
				if v.Summary.Offered != v.Summary.Records+v.Summary.Shed {
					t.Errorf("torn view books: %+v", v.Summary)
					return
				}
				_, _ = s.NodeStatus(topology.NodeID(seed) % 48)
			}
		}(int64(r))
	}
	wg.Wait()
	want := stream.New(stream.Config{DIMMs: 48 * topology.SlotsPerNode})
	want.IngestBatch(records)
	if got := s.LiveView(); !reflect.DeepEqual(got.Faults, want.Snapshot()) {
		t.Fatal("final concurrent view diverges from serial")
	}
}

// TestShardedFleetShed checks fleet-level NoteShed (scanner-side losses
// not attributable to a partition) flows into the books and the epoch.
func TestShardedFleetShed(t *testing.T) {
	s := stream.NewSharded(stream.ShardedConfig{Partitions: 2, Engine: stream.Config{DIMMs: 4}})
	seq0 := s.Seq()
	s.NoteShed(5)
	if s.Shed() != 5 {
		t.Fatalf("Shed = %d, want 5", s.Shed())
	}
	if s.Seq() != seq0+5 {
		t.Fatalf("Seq did not advance with fleet shed: %d → %d", seq0, s.Seq())
	}
	sum := s.Summary()
	if !sum.Degraded || sum.Shed != 5 || sum.Offered != 5 {
		t.Fatalf("fleet shed not in books: %+v", sum)
	}
}
