// Sharded is the fleet-of-fleets scale-out of the stream engine: records
// hash-partition by node across N goroutine-owned Engine partitions, and
// a fan-in tier merges partition aggregates into fleet views that are
// bit-identical to one serial engine over the same stream.
//
// Exactness is structural, not statistical. The BankKey space is disjoint
// per node, so node-hash partitioning splits the bank population without
// overlap: every bank's state accumulates in exactly one partition, with
// records carrying the global arrival index a serial engine would have
// used. Fault Errors lists therefore match the serial engine entry for
// entry, partition snapshots interleave back into serial order by each
// bank's first-record index, and the absolute bucket alignment of
// stats.RateWindow makes partition window counts sum to the serial count
// at any common window end. The sharded==serial differential tests in
// sharded_test.go pin all of this at every partition count.
package stream

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/topology"
)

// ShardedConfig tunes a Sharded fleet engine.
type ShardedConfig struct {
	// Partitions is the number of Engine partitions (min 1). Results are
	// identical at every setting; throughput scales with cores.
	Partitions int
	// Engine configures every partition: clustering thresholds, window,
	// and the fleet-wide DIMM population (the FIT denominator of merged
	// views).
	Engine Config
}

// LaneConfig tunes the per-partition admission lanes (StartLanes).
type LaneConfig struct {
	// Queue configures each lane's admission queue (capacity is per
	// lane). The lane wraps Queue.OnShed so shed records land in the
	// owning partition's Degraded accounting first; a caller-provided
	// OnShed still runs after it.
	Queue overload.Config
	// DrainBatch bounds records per engine ingest batch (default 256).
	DrainBatch int
	// DrainInterval pauses each lane's drainer between batches, bounding
	// the drain rate (0 = none). The astraload harness uses it to force
	// overload.
	DrainInterval time.Duration
}

// laneRec is one queued record with its pre-assigned global arrival
// index: indices are handed out at Offer time so the order records
// become visible in a partition equals their fleet arrival order even
// while other lanes stall or shed.
type laneRec struct {
	g int64
	r mce.CERecord
}

// Sharded is a partitioned stream engine with fan-in fleet views. All
// methods are safe for concurrent use; Offer is ordered per producer
// goroutine (one producer per site is the astrad arrangement — with
// several concurrent producers the interleaving, as everywhere, is
// whatever index assignment observed).
type Sharded struct {
	cfg       ShardedConfig
	parts     []*Engine
	globalIdx atomic.Int64

	// ingestMu serializes direct (lane-less) ingest fan-out so every
	// partition applies records in global index order.
	ingestMu sync.Mutex

	// shed and shedSeq account fleet-level NoteShed calls (losses not
	// attributable to one partition, e.g. scanner-side drops).
	shed    atomic.Uint64
	shedSeq atomic.Uint64

	view   atomic.Pointer[View]
	viewMu sync.Mutex

	lanes    []*overload.Queue[laneRec]
	laneWG   sync.WaitGroup
	laneCfg  LaneConfig
	hasLanes bool
}

// NewSharded returns a fleet engine with Partitions empty partitions.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	s := &Sharded{cfg: cfg}
	// Partitions run their batch scans serially: parallelism comes from
	// the partitions themselves, not nested sharding.
	pcfg := cfg.Engine
	pcfg.Parallelism = 1
	for i := 0; i < cfg.Partitions; i++ {
		s.parts = append(s.parts, newShard(pcfg, &s.globalIdx))
	}
	return s
}

// Partitions returns the partition count.
func (s *Sharded) Partitions() int { return len(s.parts) }

// partition returns the owning partition index for a node. The hash is a
// fixed multiplicative mix so record placement is stable across runs and
// restarts.
func (s *Sharded) partition(id topology.NodeID) int {
	if len(s.parts) == 1 {
		return 0
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(s.parts)))
}

// Ingest folds one record into its partition.
func (s *Sharded) Ingest(r mce.CERecord) {
	s.ingestMu.Lock()
	g := s.globalIdx.Add(1) - 1
	gs := [1]int{int(g)}
	rs := [1]mce.CERecord{r}
	s.parts[s.partition(r.Node)].ingestIndexed(gs[:], rs[:])
	s.ingestMu.Unlock()
}

// IngestBatch splits a micro-batch by partition and folds the pieces in
// parallel. Equivalent to ingesting the records one by one in order.
func (s *Sharded) IngestBatch(rs []mce.CERecord) {
	if len(rs) == 0 {
		return
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	base := int(s.globalIdx.Add(int64(len(rs)))) - len(rs)
	if len(s.parts) == 1 {
		gs := make([]int, len(rs))
		for i := range gs {
			gs[i] = base + i
		}
		s.parts[0].ingestIndexed(gs, rs)
		return
	}
	type split struct {
		gs []int
		rs []mce.CERecord
	}
	splits := make([]split, len(s.parts))
	for i := range rs {
		p := s.partition(rs[i].Node)
		splits[p].gs = append(splits[p].gs, base+i)
		splits[p].rs = append(splits[p].rs, rs[i])
	}
	var wg sync.WaitGroup
	for p := range splits {
		if len(splits[p].rs) == 0 {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s.parts[p].ingestIndexed(splits[p].gs, splits[p].rs)
		}(p)
	}
	wg.Wait()
}

// lockAll acquires every partition mutex in index order (the only order
// used anywhere, so fan-in never deadlocks against itself).
func (s *Sharded) lockAll() {
	for _, p := range s.parts {
		p.mu.Lock()
	}
}

func (s *Sharded) unlockAll() {
	for i := len(s.parts) - 1; i >= 0; i-- {
		s.parts[i].mu.Unlock()
	}
}

// lastLocked returns the fleet's newest event time; callers hold all
// partition locks. Every merged window query evaluates at this instant
// so partition sums equal the serial engine's answer.
func (s *Sharded) lastLocked() time.Time {
	var last time.Time
	for _, p := range s.parts {
		if p.last.After(last) {
			last = p.last
		}
	}
	return last
}

// seqLocked sums the partition state counters plus fleet-level shed; it
// is the epoch of merged views. Monotone: every component is.
func (s *Sharded) seqLocked() uint64 {
	seq := s.shedSeq.Load()
	for _, p := range s.parts {
		seq += p.seq.Load()
	}
	return seq
}

// Seq returns the fleet state-change counter (lock-free; see Engine.Seq).
func (s *Sharded) Seq() uint64 {
	seq := s.shedSeq.Load()
	for _, p := range s.parts {
		seq += p.seq.Load()
	}
	return seq
}

// NoteShed records fleet-level shed (losses upstream of partition
// lanes). Lane shed lands in the owning partition instead.
func (s *Sharded) NoteShed(n int) {
	if n <= 0 {
		return
	}
	s.shed.Add(uint64(n))
	s.shedSeq.Add(uint64(n))
}

// Shed returns total records lost to shedding at every level.
func (s *Sharded) Shed() uint64 {
	n := s.shed.Load()
	for _, p := range s.parts {
		n += p.shed.Load()
	}
	return n
}

// DIMMs returns the configured fleet device population.
func (s *Sharded) DIMMs() int { return s.cfg.Engine.DIMMs }

// Config returns the per-partition engine configuration (defaults
// applied).
func (s *Sharded) Config() Config { return s.parts[0].Config() }

// Summary merges partition summaries into the fleet view: sums for the
// disjoint populations (banks, DIMMs, nodes, faults, modes), min/max for
// the time bounds, and rolling-window counts evaluated at the fleet's
// newest event time.
func (s *Sharded) Summary() Summary {
	s.lockAll()
	defer s.unlockAll()
	return s.summaryLocked()
}

func (s *Sharded) summaryLocked() Summary {
	last := s.lastLocked()
	sum := Summary{Window: s.parts[0].cfg.Window, Last: last}
	shed := int(s.shed.Load())
	for _, p := range s.parts {
		p.reclassify()
		sum.Records += len(p.records)
		sum.Banks += len(p.entries)
		sum.FaultyDIMMs += p.nDIMMs
		sum.FaultyNodes += len(p.nodeStates)
		sum.Faults += p.nFaults
		for m := core.FaultMode(0); m < core.NumFaultModes; m++ {
			sum.FaultsByMode[m] += p.faultsByMode[m]
			sum.ErrorsByMode[m] += p.errorsByMode[m]
		}
		sum.Escalations += p.escalations
		if p.tStarted && (sum.First.IsZero() || p.first.Before(sum.First)) {
			sum.First = p.first
		}
		if p.tStarted {
			sum.WindowCount += p.rate.Count(last)
		}
		shed += int(p.shed.Load())
	}
	// Divide by the rate ring's effective window (whole bucket widths),
	// exactly as RateWindow.Rate does, so sharded == serial bit for bit
	// even when cfg.Window is not a multiple of the bucket count.
	if secs := s.parts[0].rate.Window().Seconds(); secs > 0 {
		sum.WindowRate = float64(sum.WindowCount) / secs
	}
	sum.Shed = shed
	sum.Offered = sum.Records + shed
	sum.Degraded = shed > 0
	return sum
}

// Snapshot returns the fleet fault list — exactly what one serial engine
// (or core.Cluster) produces over the merged stream: partition fault
// lists interleaved by each bank's first-record arrival index.
func (s *Sharded) Snapshot() []core.Fault {
	s.lockAll()
	defer s.unlockAll()
	return s.snapshotLocked()
}

func (s *Sharded) snapshotLocked() []core.Fault {
	total := 0
	for _, p := range s.parts {
		p.reclassify()
		total += p.nFaults
	}
	if total == 0 {
		// Match the serial engine: nil when no banks exist at all,
		// non-nil empty when banks exist but classify to nothing.
		banks := 0
		for _, p := range s.parts {
			banks += len(p.entries)
		}
		if banks == 0 {
			return nil
		}
	}
	out := make([]core.Fault, 0, total)
	cursors := make([]int, len(s.parts))
	for {
		best, bestIdx := -1, 0
		for pi, p := range s.parts {
			if c := cursors[pi]; c < len(p.entries) {
				if best < 0 || p.entries[c].firstIdx < bestIdx {
					best, bestIdx = pi, p.entries[c].firstIdx
				}
			}
		}
		if best < 0 {
			return out
		}
		p := s.parts[best]
		out = append(out, p.entries[cursors[best]].faults...)
		cursors[best]++
	}
}

// WindowedFIT merges the rolling FIT estimate: fault counts summed over
// partitions with the window ending at the fleet's newest event time,
// scaled by the fleet DIMM population.
func (s *Sharded) WindowedFIT() WindowedFIT {
	s.lockAll()
	defer s.unlockAll()
	return s.windowedFITLocked()
}

func (s *Sharded) windowedFITLocked() WindowedFIT {
	end := s.lastLocked()
	dimms := s.cfg.Engine.DIMMs
	w := WindowedFIT{Window: s.parts[0].cfg.Window, End: end}
	shed := s.shed.Load()
	for _, p := range s.parts {
		shed += p.shed.Load()
	}
	if shed > 0 {
		w.Degraded = true
	}
	if end.IsZero() || dimms <= 0 {
		w.Degraded = true
		return w
	}
	for _, p := range s.parts {
		p.reclassify()
		cut := end.Add(-p.cfg.Window)
		for i := range p.entries {
			for j := range p.entries[i].faults {
				f := &p.entries[i].faults[j]
				if f.First.After(cut) {
					w.NewFaults++
				}
				if f.Last.After(cut) {
					w.ActiveFaults++
				}
			}
		}
	}
	if hours := w.Window.Hours(); hours > 0 {
		w.FITPerDIMM = float64(w.NewFaults) / (float64(dimms) * hours) * 1e9
	}
	return w
}

// FaultRates converts the fleet fault population into FIT/DIMM over the
// given window, as Engine.FaultRates would over the merged stream.
func (s *Sharded) FaultRates(window time.Duration) core.FaultRates {
	s.lockAll()
	defer s.unlockAll()
	return core.AnalyzeFaultRates(s.snapshotLocked(), s.cfg.Engine.DIMMs, window)
}

// NodeStatus returns the live view of one node from its owning
// partition, with rolling windows ending at the fleet's newest event
// time (what the serial engine would report).
func (s *Sharded) NodeStatus(id topology.NodeID) (NodeStatus, bool) {
	s.lockAll()
	defer s.unlockAll()
	return s.parts[s.partition(id)].nodeStatusLocked(id, s.lastLocked())
}

// Features returns the fleet's per-bank failure-prediction feature
// vectors — partition outputs interleaved by each bank's first-record
// arrival index and evaluated at the fleet's newest event time, exactly
// what one serial engine (or a batch predict.Tracker) produces over the
// merged stream.
func (s *Sharded) Features() []predict.BankFeatures {
	s.lockAll()
	defer s.unlockAll()
	return s.featuresLocked()
}

func (s *Sharded) featuresLocked() []predict.BankFeatures {
	at := s.lastLocked()
	total := 0
	for _, p := range s.parts {
		total += len(p.entries)
	}
	if total == 0 {
		return nil
	}
	lists := make([][]predict.BankFeatures, len(s.parts))
	for pi, p := range s.parts {
		lists[pi] = p.featuresLocked(at)
	}
	out := make([]predict.BankFeatures, 0, total)
	cursors := make([]int, len(s.parts))
	for len(out) < total {
		best, bestIdx := -1, 0
		for pi := range lists {
			if c := cursors[pi]; c < len(lists[pi]) {
				if best < 0 || lists[pi][c].FirstIdx < bestIdx {
					best, bestIdx = pi, lists[pi][c].FirstIdx
				}
			}
		}
		out = append(out, lists[best][cursors[best]])
		cursors[best]++
	}
	return out
}

// Records returns every ingested record in global arrival order: the
// k-way merge of the partitions' index-stamped streams. IngestBatch of
// the result into a fresh engine (sharded at any partition count, or
// serial) reproduces the fleet state.
func (s *Sharded) Records() []mce.CERecord {
	s.lockAll()
	defer s.unlockAll()
	return s.recordsLocked()
}

func (s *Sharded) recordsLocked() []mce.CERecord {
	total := 0
	for _, p := range s.parts {
		total += len(p.records)
	}
	if total == 0 {
		return nil
	}
	out := make([]mce.CERecord, 0, total)
	cursors := make([]int, len(s.parts))
	for len(out) < total {
		best := -1
		var bestG int
		for pi, p := range s.parts {
			if c := cursors[pi]; c < len(p.records) {
				if best < 0 || p.gidx[c] < bestG {
					best, bestG = pi, p.gidx[c]
				}
			}
		}
		out = append(out, s.parts[best].records[cursors[best]])
		cursors[best]++
	}
	return out
}

// LiveView returns a current or recent fleet View, with the same
// contract as Engine.LiveView: a cached view whose epoch still matches
// returns without locks, a stale one triggers a try-lock rebuild, and
// readers never block behind ingest (they get the previous view
// instead). View.Seq is compared against Sharded.Seq for staleness.
func (s *Sharded) LiveView() *View {
	seq := s.Seq()
	if v := s.view.Load(); v != nil && v.Seq == seq {
		return v
	}
	if s.viewMu.TryLock() {
		v := s.buildView()
		s.viewMu.Unlock()
		return v
	}
	if v := s.view.Load(); v != nil {
		return v
	}
	s.viewMu.Lock()
	v := s.buildView()
	s.viewMu.Unlock()
	return v
}

// BuildView materializes a fresh fleet view unconditionally (the
// fanin-merge benchmark stage measures this path).
func (s *Sharded) BuildView() *View {
	s.viewMu.Lock()
	v := s.buildView()
	s.viewMu.Unlock()
	return v
}

// buildView merges all partitions into one immutable View under every
// partition lock — an epoch-consistent cut: no reader of the published
// view can see partition A at t1 and partition B at t0. Caller holds
// s.viewMu (so concurrent builders serialize and publication stays
// ordered).
func (s *Sharded) buildView() *View {
	s.lockAll()
	defer s.unlockAll()
	last := s.lastLocked()
	nNodes := 0
	for _, p := range s.parts {
		nNodes += len(p.nodeStates)
	}
	v := &View{
		Seq:     s.seqLocked(),
		BuiltAt: time.Now(),
		Summary: s.summaryLocked(),
		Faults:  s.snapshotLocked(),
		FIT:     s.windowedFITLocked(),
		nodes:   make(map[topology.NodeID]NodeStatus, nNodes),
	}
	v.banksFn = func() []predict.BankFeatures {
		s.lockAll()
		defer s.unlockAll()
		return s.featuresLocked()
	}
	for _, p := range s.parts {
		for i := range p.nodeStates {
			ns := &p.nodeStates[i]
			st := NodeStatus{Node: ns.node, CEs: ns.ces, First: ns.first, Last: ns.last}
			st.WindowCount, st.WindowRate = ns.rw.CountRate(last)
			v.nodes[ns.node] = st
		}
	}
	s.view.Store(v)
	return v
}

// StartLanes starts one admission lane (bounded queue + drainer
// goroutine) per partition. A hot partition saturates and sheds its own
// lane while the others keep draining — the failure isolation the
// fan-out exists for.
func (s *Sharded) StartLanes(cfg LaneConfig) error {
	if s.hasLanes {
		return errors.New("stream: lanes already started")
	}
	if cfg.DrainBatch <= 0 {
		cfg.DrainBatch = 256
	}
	s.laneCfg = cfg
	s.lanes = make([]*overload.Queue[laneRec], len(s.parts))
	for i := range s.parts {
		part := s.parts[i]
		qcfg := cfg.Queue
		userShed := qcfg.OnShed
		qcfg.OnShed = func(n int) {
			part.NoteShed(n)
			if userShed != nil {
				userShed(n)
			}
		}
		s.lanes[i] = overload.NewQueue[laneRec](qcfg)
	}
	for i := range s.lanes {
		s.laneWG.Add(1)
		go s.drainLane(i)
	}
	s.hasLanes = true
	return nil
}

func (s *Sharded) drainLane(i int) {
	defer s.laneWG.Done()
	lane, part := s.lanes[i], s.parts[i]
	var gs []int
	var rs []mce.CERecord
	for {
		batch, ok := lane.Take(s.laneCfg.DrainBatch)
		if len(batch) > 0 {
			gs, rs = gs[:0], rs[:0]
			for j := range batch {
				gs = append(gs, int(batch[j].g))
				rs = append(rs, batch[j].r)
			}
			part.ingestIndexed(gs, rs)
			lane.Done()
			if s.laneCfg.DrainInterval > 0 {
				time.Sleep(s.laneCfg.DrainInterval)
			}
		}
		if !ok {
			return
		}
	}
}

// Offer routes one record to its partition's lane, returning false when
// the lane shed it (the loss is already accounted). Ordered per producer
// goroutine; the global arrival index is assigned before enqueue, so a
// producer's records reach their partitions in offer order.
func (s *Sharded) Offer(r mce.CERecord) bool {
	g := s.globalIdx.Add(1) - 1
	return s.lanes[s.partition(r.Node)].Offer(laneRec{g: g, r: r})
}

// CloseLanes closes every lane and waits for the drainers to finish the
// backlog.
func (s *Sharded) CloseLanes() {
	for _, lane := range s.lanes {
		lane.Close()
	}
	s.laneWG.Wait()
}

// LaneStats returns each lane's queue accounting (index = partition).
func (s *Sharded) LaneStats() []overload.QueueStats {
	out := make([]overload.QueueStats, len(s.lanes))
	for i, lane := range s.lanes {
		out[i] = lane.Stats()
	}
	return out
}

// LaneDepth sums the records currently queued across lanes.
func (s *Sharded) LaneDepth() int {
	d := 0
	for _, lane := range s.lanes {
		d += lane.Depth()
	}
	return d
}

// Quiesce freezes every lane (drainers idle, offers blocked) and calls
// fn with a prefix-consistent snapshot: every admitted record, ingested
// or still queued, in global arrival order, and the lane stats. Lanes
// drain at different paces, so ingested and queued records interleave in
// global order; they are merged on the global index. This is the
// checkpoint path: len(prefix) + shed == offered exactly at the instant
// fn runs.
func (s *Sharded) Quiesce(fn func(prefix []mce.CERecord, stats []overload.QueueStats)) {
	if len(s.lanes) == 0 {
		fn(s.Records(), nil)
		return
	}
	var admitted []laneRec
	stats := make([]overload.QueueStats, len(s.lanes))
	var freeze func(i int)
	freeze = func(i int) {
		if i == len(s.lanes) {
			s.lockAll()
			for _, p := range s.parts {
				for c := range p.records {
					admitted = append(admitted, laneRec{g: int64(p.gidx[c]), r: p.records[c]})
				}
			}
			s.unlockAll()
			slices.SortFunc(admitted, func(a, b laneRec) int { return cmp.Compare(a.g, b.g) })
			prefix := make([]mce.CERecord, len(admitted))
			for j := range admitted {
				prefix[j] = admitted[j].r
			}
			fn(prefix, stats)
			return
		}
		s.lanes[i].Freeze(func(queued []laneRec, st overload.QueueStats) {
			admitted = append(admitted, queued...)
			stats[i] = st
			freeze(i + 1)
		})
	}
	freeze(0)
}
