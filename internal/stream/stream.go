// Package stream is the online half of the paper's methodology: an
// incremental fault-clustering engine that consumes CE records in
// batches (IngestBatch, down to one record) and keeps per-bank fault
// state current, so fault counts, mode mixes, per-node CE rates and FIT
// estimates are available at any instant instead of after a nightly
// batch run. The fault list, windowed FIT and per-node status are read
// through one path, LiveView: an immutable View, rebuilt only when the
// engine has changed. Summary and Features read the current totals and
// bank features under the engine's lock, for metrics and checkpoints.
//
// The engine carries a differential guarantee: replaying any record
// sequence through IngestBatch — at any batch size — then reading
// LiveView().Faults yields exactly the faults (order, modes, error
// index lists) that core.Cluster produces over the same records. This
// is not an accident of testing but of construction: both paths
// accumulate core.BankState per bank and classify through
// BankState.AppendFaults, and the property tests in this package pin
// it.
//
// Mode escalation is the natural history of a DRAM fault under this
// methodology: a bank that has shown one stuck bit (single-bit) may grow
// to several bits in a word (single-word), a column, or scattered words
// (single-bank) as more errors arrive. The engine re-derives each bank's
// classification lazily — banks are marked dirty on ingest and
// reclassified on the next query — and counts observed escalations.
//
// The per-record path is built for multi-million records/s on one core:
// bank and node lookups go through dense slices and short per-node ref
// lists instead of hashed maps (a packed integer key with a map fallback
// keeps exotic slot/node values exact), the dirty set is a flag on the
// bank entry plus an index list, and the rolling rate windows advance in
// O(1). One engine serves a whole site: every DRAM bank belongs to one
// node, so clustering never needs more than one engine per fleet.
//
// The engine keeps every record it ingests (fault Errors index them) in
// a record log of packed, pointer-free 32-byte rows in fixed-size
// chunks: it grows without copying, the GC never scans it, a
// checkpoint reads it through an O(1) RecordLog handle instead of a
// copy, and a restart decodes a checkpoint straight into it
// (DecodeRecordLog, Restore).
package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mce"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/topology"
)

// DefaultWindow is the trailing window for rolling rates and windowed FIT
// estimates when Config.Window is zero.
const DefaultWindow = 24 * time.Hour

// DefaultRateBuckets is the ring resolution of the rolling-rate windows.
const DefaultRateBuckets = 48

// Config tunes the engine. The zero value is usable: default clustering
// thresholds, a 24-hour rolling window, no FIT denominator (rate queries
// report Degraded until DIMMs is set).
type Config struct {
	// Cluster sets the clustering thresholds; the zero value means
	// core.DefaultClusterConfig().
	Cluster core.ClusterConfig
	// Window is the trailing window for rolling CE rates and windowed FIT
	// estimates; 0 means DefaultWindow.
	Window time.Duration
	// RateBuckets resolves the rolling windows; 0 means DefaultRateBuckets.
	RateBuckets int
	// DIMMs is the monitored device population, the denominator of FIT
	// estimates (nodes × topology.SlotsPerNode on the full system).
	DIMMs int
}

// bankRef is a per-node reference to one bank entry: the packed
// (slot, rank, bank) key and the index into Engine.entries.
type bankRef struct {
	pk  uint64
	idx int32
}

// bankEntry is one bank's live state: accumulated errors, the cached
// classification, the arrival index of the bank's first record (the
// risk ranking's tie-break), and the incremental failure-prediction
// features. The feature state updates strictly in arrival order —
// predict.FeatureState deliberately has no merge operation — so stream
// features are bit-identical to a batch predict.Tracker over the same
// records at any micro-batch size.
type bankEntry struct {
	key      core.BankKey
	state    *core.BankState
	faults   []core.Fault
	fs       predict.FeatureState
	firstIdx int
	dirty    bool
}

// nodeState is the per-node rolling view. firstSec/lastSec shadow
// first/last at second resolution so the hot path compares integers and
// only falls back to time.Time ordering on equal seconds.
type nodeState struct {
	node              topology.NodeID
	ces               int
	first, last       time.Time
	firstSec, lastSec int64
	rw                stats.RateWindow
	// slots is the bitmask of faulted DIMM slots (slot values 0..63; the
	// engine-level dimmOver set holds anything outside).
	slots uint64
	// banks lists this node's bank entries in first-appearance order; a
	// linear scan beats a map at realistic per-node bank counts, and
	// bankMap takes over past linearBankScan entries.
	banks   []bankRef
	bankMap map[uint64]int32
}

// linearBankScan is the per-node bank count above which lookups switch
// from a linear ref scan to a map. Real nodes carry a handful of faulty
// banks; the map path only matters for corrupted or adversarial inputs.
const linearBankScan = 16

// maxDenseNode bounds the dense NodeID -> state index table; ids outside
// [0, maxDenseNode) fall back to a map and stay exact.
const maxDenseNode = 1 << 20

// Engine is the incremental clustering engine. All methods are safe for
// concurrent use: ingest and queries serialize on one mutex (queries may
// reclassify dirty banks, so they mutate cached state too).
type Engine struct {
	mu  sync.Mutex
	cfg Config

	// log is every ingested CE in arrival order; fault Errors index into
	// it. It grows for the lifetime of the engine, like the input slice
	// of a batch run.
	log recordLog

	// entries holds every bank in first-appearance order (what the batch
	// clusterer's output order is defined by); each node's bank refs find
	// its entries by packed (slot, rank, bank) key, and bankOverflow
	// catches keys whose fields do not pack.
	entries      []bankEntry
	bankOverflow map[core.BankKey]int32
	dirtyIdx     []int32

	nFaults      int
	faultsByMode [core.NumFaultModes]int
	errorsByMode [core.NumFaultModes]int
	escalations  int

	// nodeIdx densely maps NodeID to an index in nodeStates (-1 = none);
	// nodeOver covers ids outside the dense range.
	nodeIdx    []int32
	nodeOver   map[topology.NodeID]int32
	nodeStates []nodeState

	// nDIMMs counts distinct (node, slot) pairs with ≥1 fault; dimmOver
	// holds pairs whose slot does not fit the per-node bitmask.
	nDIMMs   int
	dimmOver map[[2]int64]struct{}

	rate              stats.RateWindow
	first             time.Time
	last              time.Time
	firstSec, lastSec int64
	tStarted          bool

	// seq counts state changes (records made visible plus shed
	// notifications) and is readable without the mutex; view caches the
	// last built read-only View, stale when its Seq trails seq.
	seq  atomic.Uint64
	shed atomic.Uint64
	view atomic.Pointer[View]
}

// New returns an engine with no state.
func New(cfg Config) *Engine {
	if cfg.Cluster == (core.ClusterConfig{}) {
		cfg.Cluster = core.DefaultClusterConfig()
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.RateBuckets <= 0 {
		cfg.RateBuckets = DefaultRateBuckets
	}
	e := &Engine{cfg: cfg}
	e.rate.Init(cfg.Window, cfg.RateBuckets)
	if cfg.DIMMs > 0 {
		// The device population bounds the node population; presizing the
		// node tables turns their growth copies into one allocation.
		est := cfg.DIMMs/topology.SlotsPerNode + 1
		e.nodeStates = make([]nodeState, 0, est)
		e.nodeIdx = make([]int32, est)
		for i := range e.nodeIdx {
			e.nodeIdx[i] = -1
		}
	}
	return e
}

// packBank packs (slot, rank, bank) into the per-node bank key; ok is
// false when slot falls outside the packable range (exotic inputs take
// the exact bankOverflow path instead).
func packBank(slot topology.Slot, rank, bank int) (uint64, bool) {
	if slot < 0 || uint64(slot) >= 1<<44 {
		return 0, false
	}
	return uint64(slot)<<16 | uint64(uint8(rank))<<8 | uint64(uint8(bank)), true
}

// ensureNode returns the nodeStates index for id, creating an empty state
// on first sight. The returned index is stable; pointers into nodeStates
// are not (appends may move the backing array).
func (e *Engine) ensureNode(id topology.NodeID) int32 {
	if i := int(id); i >= 0 && i < maxDenseNode {
		if i >= len(e.nodeIdx) {
			n := i + 1
			if d := 2 * len(e.nodeIdx); d > n {
				n = d
			}
			if n < 64 {
				n = 64
			}
			if n > maxDenseNode {
				n = maxDenseNode
			}
			grown := make([]int32, n)
			copy(grown, e.nodeIdx)
			for j := len(e.nodeIdx); j < len(grown); j++ {
				grown[j] = -1
			}
			e.nodeIdx = grown
		}
		if idx := e.nodeIdx[i]; idx >= 0 {
			return idx
		}
		idx := e.newNodeState(id)
		e.nodeIdx[i] = idx
		return idx
	}
	if idx, ok := e.nodeOver[id]; ok {
		return idx
	}
	if e.nodeOver == nil {
		e.nodeOver = map[topology.NodeID]int32{}
	}
	idx := e.newNodeState(id)
	e.nodeOver[id] = idx
	return idx
}

func (e *Engine) newNodeState(id topology.NodeID) int32 {
	idx := int32(len(e.nodeStates))
	e.nodeStates = append(e.nodeStates, nodeState{node: id})
	e.nodeStates[idx].rw.Init(e.cfg.Window, e.cfg.RateBuckets)
	return idx
}

// ensureBank returns the entry index for the bank the record belongs to,
// creating the entry (and its DIMM accounting) on first sight. g is the
// record's arrival index, the entry's firstIdx when new.
func (e *Engine) ensureBank(rec *mce.CERecord, nsIdx int32, g int) int32 {
	pk, ok := packBank(rec.Slot, rec.Rank, rec.Bank)
	if !ok {
		return e.ensureBankOverflow(rec, nsIdx, g)
	}
	ns := &e.nodeStates[nsIdx]
	if ns.bankMap != nil {
		if idx, ok := ns.bankMap[pk]; ok {
			return idx
		}
	} else {
		for i := range ns.banks {
			if ns.banks[i].pk == pk {
				return ns.banks[i].idx
			}
		}
	}
	idx := e.addEntry(core.RecordBankKey(rec), g)
	ns = &e.nodeStates[nsIdx] // addEntry does not touch nodeStates, but stay safe
	ns.banks = append(ns.banks, bankRef{pk: pk, idx: idx})
	if ns.bankMap != nil {
		ns.bankMap[pk] = idx
	} else if len(ns.banks) > linearBankScan {
		ns.bankMap = make(map[uint64]int32, 2*len(ns.banks))
		for _, ref := range ns.banks {
			ns.bankMap[ref.pk] = ref.idx
		}
	}
	e.noteDIMM(rec.Node, int64(rec.Slot), ns)
	return idx
}

func (e *Engine) ensureBankOverflow(rec *mce.CERecord, nsIdx int32, g int) int32 {
	key := core.RecordBankKey(rec)
	if idx, ok := e.bankOverflow[key]; ok {
		return idx
	}
	if e.bankOverflow == nil {
		e.bankOverflow = map[core.BankKey]int32{}
	}
	idx := e.addEntry(key, g)
	e.bankOverflow[key] = idx
	e.noteDIMM(rec.Node, int64(rec.Slot), &e.nodeStates[nsIdx])
	return idx
}

func (e *Engine) addEntry(key core.BankKey, g int) int32 {
	idx := int32(len(e.entries))
	e.entries = append(e.entries, bankEntry{key: key, state: core.NewBankState(), firstIdx: g, dirty: true})
	e.entries[idx].fs.Init(e.cfg.Window, e.cfg.RateBuckets)
	e.dirtyIdx = append(e.dirtyIdx, idx)
	return idx
}

// noteDIMM counts the (node, slot) pair once.
func (e *Engine) noteDIMM(node topology.NodeID, slot int64, ns *nodeState) {
	if slot >= 0 && slot < 64 {
		if bit := uint64(1) << uint(slot); ns.slots&bit == 0 {
			ns.slots |= bit
			e.nDIMMs++
		}
		return
	}
	key := [2]int64{int64(node), slot}
	if _, ok := e.dimmOver[key]; !ok {
		if e.dimmOver == nil {
			e.dimmOver = map[[2]int64]struct{}{}
		}
		e.dimmOver[key] = struct{}{}
		e.nDIMMs++
	}
}

// fold is the per-record hot path: it folds the record with arrival
// index g into the fault, feature and node state. IngestBatch runs it
// on the caller's record after appending it to the log, so the bank
// state never reads the log's row; Restore runs it on each row,
// unpacked.
func (e *Engine) fold(g int, rec *mce.CERecord) {
	nsIdx := e.ensureNode(rec.Node)
	entIdx := e.ensureBank(rec, nsIdx, g)
	ent := &e.entries[entIdx]
	ent.state.Add(g, rec)
	ent.fs.Observe(rec.Time.UnixNano())
	if !ent.dirty {
		ent.dirty = true
		e.dirtyIdx = append(e.dirtyIdx, entIdx)
	}
	e.noteScalars(nsIdx, rec)
}

// noteScalars maintains the per-record rolling aggregates (everything
// except the bank state itself).
func (e *Engine) noteScalars(nsIdx int32, rec *mce.CERecord) {
	sec := rec.Time.Unix()
	nano := rec.Time.UnixNano()
	ns := &e.nodeStates[nsIdx]
	if ns.ces == 0 {
		ns.first, ns.last = rec.Time, rec.Time
		ns.firstSec, ns.lastSec = sec, sec
	} else {
		if sec < ns.firstSec || (sec == ns.firstSec && rec.Time.Before(ns.first)) {
			ns.firstSec, ns.first = sec, rec.Time
		}
		if sec > ns.lastSec || (sec == ns.lastSec && rec.Time.After(ns.last)) {
			ns.lastSec, ns.last = sec, rec.Time
		}
	}
	ns.ces++
	ns.rw.AddNano(nano)
	e.rate.AddNano(nano)
	if !e.tStarted {
		e.tStarted = true
		e.first, e.last = rec.Time, rec.Time
		e.firstSec, e.lastSec = sec, sec
		return
	}
	if sec < e.firstSec || (sec == e.firstSec && rec.Time.Before(e.first)) {
		e.firstSec, e.first = sec, rec.Time
	}
	if sec > e.lastSec || (sec == e.lastSec && rec.Time.After(e.last)) {
		e.lastSec, e.last = sec, rec.Time
	}
}

// IngestBatch folds a batch of records into the engine under one lock
// hold. The hot path allocates only when it sees a new bank, word
// address or node, and the result is the same at every batch size,
// one-record batches included.
func (e *Engine) IngestBatch(rs []mce.CERecord) {
	if len(rs) == 0 {
		return
	}
	e.mu.Lock()
	for i := range rs {
		e.fold(e.log.append(&rs[i]), &rs[i])
	}
	e.seq.Add(uint64(len(rs)))
	e.mu.Unlock()
}

// Restore returns an engine holding the records of h, a handle
// DecodeRecordLog returned (or the empty handle): the engine New(cfg) is
// after IngestBatch(h.Records()), built without that copy. The engine
// takes h's rows over, the partial chunk it goes on appending to
// included, and folds every row through ingest's per-record fold,
// unpacked into one reused record. h stays readable, but a second engine
// restored from it would append into the same chunk, so each decoded
// handle is restored once. Restoring is astrad's warm restart.
func Restore(cfg Config, h RecordLog) *Engine {
	if !h.decoded && h.Len() > 0 {
		panic("stream: Restore of a handle DecodeRecordLog did not return")
	}
	e := New(cfg)
	e.log = h.log
	var rec mce.CERecord
	for g := 0; g < e.log.n; g++ {
		e.log.chunks[g>>chunkShift][g&chunkMask].unpack(&rec)
		e.fold(g, &rec)
	}
	e.seq.Add(uint64(e.log.n))
	return e
}

// reclassify re-derives the fault lists of dirty banks and updates the
// aggregate counters by delta. Caller holds e.mu.
func (e *Engine) reclassify() {
	if len(e.dirtyIdx) == 0 {
		return
	}
	for _, entIdx := range e.dirtyIdx {
		ent := &e.entries[entIdx]
		old := ent.faults
		fs := ent.state.AppendFaults(nil, ent.key, e.cfg.Cluster)
		oldMax, newMax := -1, -1
		for i := range old {
			f := &old[i]
			e.faultsByMode[f.Mode]--
			e.errorsByMode[f.Mode] -= f.NErrors
			if int(f.Mode) > oldMax {
				oldMax = int(f.Mode)
			}
		}
		for i := range fs {
			f := &fs[i]
			e.faultsByMode[f.Mode]++
			e.errorsByMode[f.Mode] += f.NErrors
			if int(f.Mode) > newMax {
				newMax = int(f.Mode)
			}
		}
		e.nFaults += len(fs) - len(old)
		// An escalation is a bank whose worst observed mode grew (bit →
		// word → column → bank). Lazily observed: transitions between two
		// queries collapse into one.
		if oldMax >= 0 && newMax > oldMax {
			e.escalations++
		}
		ent.faults = fs
		ent.dirty = false
	}
	e.dirtyIdx = e.dirtyIdx[:0]
}

// snapshotLocked returns the full fault list over everything ingested
// so far — exactly what core.Cluster would return for the same records
// in the same order (nil when nothing has been ingested). The faults
// share their Errors backing arrays with the engine's cache. Caller
// holds e.mu.
func (e *Engine) snapshotLocked() []core.Fault {
	e.reclassify()
	if len(e.entries) == 0 {
		return nil
	}
	out := make([]core.Fault, 0, e.nFaults)
	for i := range e.entries {
		out = append(out, e.entries[i].faults...)
	}
	return out
}

// Features returns the live failure-prediction feature vector of every
// bank, in first-appearance order, evaluated at the newest event time —
// exactly what a batch predict.Tracker over Records() would return at
// the same instant. The result is freshly allocated; callers may keep
// it.
func (e *Engine) Features() []predict.BankFeatures {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.featuresLocked()
}

// featuresLocked evaluates every bank's features at the newest event
// time. Caller holds e.mu; the snapshot advances each bank's rolling
// window to it.
func (e *Engine) featuresLocked() []predict.BankFeatures {
	if len(e.entries) == 0 {
		return nil
	}
	out := make([]predict.BankFeatures, 0, len(e.entries))
	for i := range e.entries {
		ent := &e.entries[i]
		out = append(out, predict.BankFeatures{
			Key:      ent.key,
			FirstIdx: ent.firstIdx,
			F:        ent.fs.Snapshot(ent.state.Spatial(), e.last),
		})
	}
	return out
}

// Records returns a copy of every ingested CE record in arrival order —
// the engine's replayable state (IngestBatch of this slice into a fresh
// engine reproduces the engine exactly).
func (e *Engine) Records() []mce.CERecord {
	h := e.RecordLog(nil)
	if h.Len() == 0 {
		return nil
	}
	return h.Records()
}

// Summary is the live top-level view.
type Summary struct {
	// Records is the number of CE records ingested.
	Records int `json:"records"`
	// First and Last bound the observed event time (zero when empty).
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`
	// Banks, FaultyDIMMs and FaultyNodes count the distinct structures
	// with at least one fault.
	Banks       int `json:"banks"`
	FaultyDIMMs int `json:"faultyDIMMs"`
	FaultyNodes int `json:"faultyNodes"`
	// Faults is the current fault count; FaultsByMode and ErrorsByMode
	// decompose faults and their attributed errors by mode.
	Faults       int                     `json:"faults"`
	FaultsByMode [core.NumFaultModes]int `json:"faultsByMode"`
	ErrorsByMode [core.NumFaultModes]int `json:"errorsByMode"`
	// Escalations counts banks whose worst observed mode grew between two
	// classifications (single-bit → single-word → single-column →
	// single-bank).
	Escalations int `json:"escalations"`
	// WindowCount and WindowRate are the CE count and per-second rate
	// over the trailing window ending at Last.
	Window      time.Duration `json:"window"`
	WindowCount int           `json:"windowCount"`
	WindowRate  float64       `json:"windowRate"`
	// Shed counts records refused admission upstream of the engine
	// (reported via NoteShed); Offered is Records + Shed. When Shed is
	// non-zero every aggregate above undercounts and Degraded is set —
	// overload loses data loudly, never silently.
	Shed     int  `json:"shed"`
	Offered  int  `json:"offered"`
	Degraded bool `json:"degraded"`
}

// Summary returns the live top-level view, reclassifying dirty banks
// first.
func (e *Engine) Summary() Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.summaryLocked()
}

func (e *Engine) summaryLocked() Summary {
	e.reclassify()
	shed := int(e.shed.Load())
	windowCount, windowRate := e.rate.CountRate(e.last)
	return Summary{
		Records:      e.log.n,
		First:        e.first,
		Last:         e.last,
		Banks:        len(e.entries),
		FaultyDIMMs:  e.nDIMMs,
		FaultyNodes:  len(e.nodeStates),
		Faults:       e.nFaults,
		FaultsByMode: e.faultsByMode,
		ErrorsByMode: e.errorsByMode,
		Escalations:  e.escalations,
		Window:       e.cfg.Window,
		WindowCount:  windowCount,
		WindowRate:   windowRate,
		Shed:         shed,
		Offered:      e.log.n + shed,
		Degraded:     shed > 0,
	}
}

// NoteShed records n CE records lost to load shedding upstream of the
// engine (the admission queue's reject/evict paths call this through
// overload.Config.OnShed). The loss flows into Summary — Shed, Offered,
// Degraded — and marks the view's FIT degraded, so the books
// offered == ingested + shed stay visible at every layer.
func (e *Engine) NoteShed(n int) {
	if n <= 0 {
		return
	}
	e.shed.Add(uint64(n))
	e.seq.Add(uint64(n))
}

// Shed returns the count of records reported lost via NoteShed.
func (e *Engine) Shed() uint64 { return e.shed.Load() }

// Seq returns the engine's state-change counter: it advances for every
// record made visible and every shed notification, without taking the
// engine mutex. View staleness is measured against it.
func (e *Engine) Seq() uint64 { return e.seq.Load() }

// DIMMs returns the configured monitored device population (the FIT
// denominator).
func (e *Engine) DIMMs() int { return e.cfg.DIMMs }

// WindowedFIT is a rolling FIT estimate: fault arrivals inside the
// trailing window scaled to failures per 10⁹ device-hours.
type WindowedFIT struct {
	// Window is the trailing window; End is its right edge (the newest
	// event time seen).
	Window time.Duration `json:"window"`
	End    time.Time     `json:"end"`
	// NewFaults counts faults first observed inside the window;
	// ActiveFaults counts faults with any activity inside it.
	NewFaults    int `json:"newFaults"`
	ActiveFaults int `json:"activeFaults"`
	// FITPerDIMM scales NewFaults to FIT over the window and the
	// configured DIMM population.
	FITPerDIMM float64 `json:"fitPerDIMM"`
	// Degraded reports an untrustworthy estimate: no events yet, no
	// configured DIMM population, or records shed under overload (the
	// fault population undercounts).
	Degraded bool `json:"degraded"`
}

// windowedFITLocked computes the rolling FIT estimate over the
// configured window ending at the newest event time. Caller holds e.mu.
func (e *Engine) windowedFITLocked() WindowedFIT {
	e.reclassify()
	w := WindowedFIT{Window: e.cfg.Window, End: e.last}
	if e.shed.Load() > 0 {
		// Shed records mean the fault population undercounts.
		w.Degraded = true
	}
	if e.last.IsZero() || e.cfg.DIMMs <= 0 {
		w.Degraded = true
		return w
	}
	cut := e.last.Add(-e.cfg.Window)
	for i := range e.entries {
		for j := range e.entries[i].faults {
			f := &e.entries[i].faults[j]
			if f.First.After(cut) {
				w.NewFaults++
			}
			if f.Last.After(cut) {
				w.ActiveFaults++
			}
		}
	}
	hours := e.cfg.Window.Hours()
	if hours > 0 {
		w.FITPerDIMM = float64(w.NewFaults) / (float64(e.cfg.DIMMs) * hours) * 1e9
	}
	return w
}

// NodeStatus is the live per-node view.
type NodeStatus struct {
	Node topology.NodeID `json:"node"`
	// CEs is the node's total CE count; First/Last bound its activity.
	CEs   int       `json:"ces"`
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`
	// WindowCount and WindowRate cover the trailing window ending at the
	// engine's newest event time.
	WindowCount int     `json:"windowCount"`
	WindowRate  float64 `json:"windowRate"`
	// Faults is the node's current fault list.
	Faults []core.Fault `json:"faults"`
}
