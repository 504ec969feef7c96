package stream

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/topology"
)

// View is an immutable point-in-time snapshot of the engine: everything
// the HTTP layer serves, materialized once so a herd of API readers
// never contends with ingest on the engine mutex. A View is never
// mutated after publication; callers may share it freely but must not
// modify Faults or the per-node slices.
type View struct {
	// Seq is the engine state-change counter the view was built at; the
	// view is stale while Engine.Seq() is ahead of it.
	Seq uint64
	// BuiltAt is the wall-clock build time, the base of staleness ages.
	BuiltAt time.Time
	// Summary is what Engine.Summary would have returned at Seq; Faults
	// is the full fault list, in core.Cluster's order, and FIT the
	// rolling FIT estimate over the engine's window, both at Seq.
	Summary Summary
	Faults  []core.Fault
	FIT     WindowedFIT

	nodes map[topology.NodeID]NodeStatus // scalars only; Faults filled on demand

	// The per-bank prediction features are deferred: extraction walks
	// every bank's word population (O(banks·words)), which would make
	// the rollup endpoints — rebuilt on every poll during ingest — pay
	// for a field only the risk surface reads. banksFn is installed at
	// build time and runs at most once, on first Banks() call.
	banksOnce sync.Once
	banks     []predict.BankFeatures
	banksFn   func() []predict.BankFeatures
}

// Banks returns each tracked bank's prediction features in
// first-appearance order — the input the serving layer scores against a
// predictor at render time, so swapping predictors never requires a
// view rebuild. Extraction is lazy and memoized: the first call
// evaluates against the live engine (at or ahead of Seq — risk readers
// get the freshest features available; on a quiescent engine this is
// exactly the Seq snapshot, which is what the stream==batch
// differentials compare), and every later call returns the same slice.
// Callers must not modify it.
func (v *View) Banks() []predict.BankFeatures {
	v.banksOnce.Do(func() {
		if v.banksFn != nil {
			v.banks = v.banksFn()
			v.banksFn = nil
		}
	})
	return v.banks
}

// NodeStatus returns the view's per-node status; ok is false when the
// node had produced no CE records at build time. The fault list is
// assembled per call from the view's fault snapshot (allocates, but
// touches no engine state).
func (v *View) NodeStatus(id topology.NodeID) (NodeStatus, bool) {
	ns, ok := v.nodes[id]
	if !ok {
		return NodeStatus{}, false
	}
	for i := range v.Faults {
		if v.Faults[i].Node == id {
			ns.Faults = append(ns.Faults, v.Faults[i])
		}
	}
	return ns, true
}

// FaultRates converts the view's fault population into FIT/DIMM over
// the given window, as core.AnalyzeFaultRates does over a batch
// clustering of the same records.
func (v *View) FaultRates(dimms int, window time.Duration) core.FaultRates {
	return core.AnalyzeFaultRates(v.Faults, dimms, window)
}

// MergeViews composes per-site views into one cross-site rollup: counts
// and fault lists are summed/concatenated (sites are disjoint fleets),
// time bounds are min/max, and the FIT estimate is rescaled to the
// combined DIMM population. Seq is the sum of the input seqs, so the
// rollup epoch advances whenever any site's does. A single input is
// returned as-is. A rollup is a composition of independently-evolving
// sites, not one arrival order: each input is that site's consistent
// cut, and node entries colliding across sites (reused IDs) are summed.
func MergeViews(dimms int, vs ...*View) *View {
	if len(vs) == 1 {
		return vs[0]
	}
	nNodes := 0
	for _, v := range vs {
		nNodes += len(v.nodes)
	}
	m := &View{
		BuiltAt: time.Now(),
		nodes:   make(map[topology.NodeID]NodeStatus, nNodes),
	}
	for _, v := range vs {
		m.Seq += v.Seq
		s, sum := &m.Summary, v.Summary
		s.Records += sum.Records
		s.Banks += sum.Banks
		s.FaultyDIMMs += sum.FaultyDIMMs
		s.FaultyNodes += sum.FaultyNodes
		s.Faults += sum.Faults
		for mode := range sum.FaultsByMode {
			s.FaultsByMode[mode] += sum.FaultsByMode[mode]
			s.ErrorsByMode[mode] += sum.ErrorsByMode[mode]
		}
		s.Escalations += sum.Escalations
		s.WindowCount += sum.WindowCount
		s.WindowRate += sum.WindowRate
		s.Shed += sum.Shed
		s.Offered += sum.Offered
		s.Degraded = s.Degraded || sum.Degraded
		if s.Window == 0 {
			s.Window = sum.Window
		}
		if !sum.First.IsZero() && (s.First.IsZero() || sum.First.Before(s.First)) {
			s.First = sum.First
		}
		if sum.Last.After(s.Last) {
			s.Last = sum.Last
		}
		m.Faults = append(m.Faults, v.Faults...)
		f := &m.FIT
		f.NewFaults += v.FIT.NewFaults
		f.ActiveFaults += v.FIT.ActiveFaults
		f.Degraded = f.Degraded || v.FIT.Degraded
		if f.Window == 0 {
			f.Window = v.FIT.Window
		}
		if v.FIT.End.After(f.End) {
			f.End = v.FIT.End
		}
		for id, ns := range v.nodes {
			if prev, ok := m.nodes[id]; ok {
				prev.CEs += ns.CEs
				prev.WindowCount += ns.WindowCount
				prev.WindowRate += ns.WindowRate
				if !ns.First.IsZero() && (prev.First.IsZero() || ns.First.Before(prev.First)) {
					prev.First = ns.First
				}
				if ns.Last.After(prev.Last) {
					prev.Last = ns.Last
				}
				m.nodes[id] = prev
			} else {
				m.nodes[id] = ns
			}
		}
	}
	if hours := m.FIT.Window.Hours(); hours > 0 && dimms > 0 && !m.FIT.End.IsZero() {
		m.FIT.FITPerDIMM = float64(m.FIT.NewFaults) / (float64(dimms) * hours) * 1e9
	} else {
		m.FIT.Degraded = true
	}
	inputs := append([]*View(nil), vs...)
	m.banksFn = func() []predict.BankFeatures {
		var banks []predict.BankFeatures
		for _, v := range inputs {
			banks = append(banks, v.Banks()...)
		}
		return banks
	}
	return m
}

// LiveView returns a current or recent View. If the cached view is
// current it is returned directly (no lock). Otherwise the engine tries
// to rebuild — but only with a try-lock: when an ingest batch holds the
// engine mutex, the previous view is returned as-is instead of
// blocking, so read traffic can never stall behind ingest (nor ingest
// behind a herd of readers). Callers detect staleness by comparing
// view.Seq against Engine.Seq() and view.BuiltAt against the clock.
// Only the very first view of an engine's life may block.
func (e *Engine) LiveView() *View {
	seq := e.seq.Load()
	if v := e.view.Load(); v != nil && v.Seq == seq {
		return v
	}
	if e.mu.TryLock() {
		v := e.buildViewLocked()
		e.mu.Unlock()
		return v
	}
	if v := e.view.Load(); v != nil {
		return v // stale, but nobody waits
	}
	// No view exists yet (first request racing the first ingest): build
	// one properly.
	e.mu.Lock()
	v := e.buildViewLocked()
	e.mu.Unlock()
	return v
}

// buildViewLocked materializes and publishes a fresh view. Caller holds
// e.mu, so the publication is ordered: a concurrent builder cannot
// overwrite a newer view with an older one.
func (e *Engine) buildViewLocked() *View {
	v := &View{
		Seq:     e.seq.Load(),
		BuiltAt: time.Now(),
		Summary: e.summaryLocked(),
		Faults:  e.snapshotLocked(),
		FIT:     e.windowedFITLocked(),
		nodes:   make(map[topology.NodeID]NodeStatus, len(e.nodeStates)),
	}
	v.banksFn = func() []predict.BankFeatures {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.featuresLocked()
	}
	for i := range e.nodeStates {
		ns := &e.nodeStates[i]
		st := NodeStatus{Node: ns.node, CEs: ns.ces, First: ns.first, Last: ns.last}
		st.WindowCount, st.WindowRate = ns.rw.CountRate(e.last)
		v.nodes[ns.node] = st
	}
	e.view.Store(v)
	return v
}
