package predict

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mce"
)

// TrackerConfig sizes the per-bank rate windows; it must match the
// stream engine's window config for stream and batch features to
// agree (both default to the engine's 24h/48-bucket window).
type TrackerConfig struct {
	Window      time.Duration
	RateBuckets int
}

// DefaultTrackerConfig mirrors stream.Config's defaults.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{Window: 24 * time.Hour, RateBuckets: 48}
}

func (c *TrackerConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 24 * time.Hour
	}
	if c.RateBuckets <= 0 {
		c.RateBuckets = 48
	}
}

// BankTrack is one bank's accumulated state in a batch Tracker: the
// clustering accumulator (spatial features) plus the temporal feature
// state.
type BankTrack struct {
	Key      core.BankKey
	FirstIdx int
	State    *core.BankState
	FS       FeatureState
}

// Snapshot derives the bank's feature vector at time `at`.
func (bt *BankTrack) Snapshot(at time.Time) Features {
	return bt.FS.Snapshot(bt.State.Spatial(), at)
}

// Tracker is the batch-side feature engine: it replays a CE record
// stream in order and accumulates per-bank state, exactly as the
// stream engine does internally. The evaluation harness and the
// stream==batch differential both use it.
type Tracker struct {
	cfg   TrackerConfig
	banks map[core.BankKey]*BankTrack
	order []*BankTrack // first-arrival order
	n     int          // records observed (arrival index source)
	last  time.Time    // newest event time seen
}

// NewTracker builds an empty tracker.
func NewTracker(cfg TrackerConfig) *Tracker {
	cfg.defaults()
	return &Tracker{cfg: cfg, banks: map[core.BankKey]*BankTrack{}}
}

func (t *Tracker) ensure(rec *mce.CERecord) *BankTrack {
	key := core.RecordBankKey(rec)
	bt, ok := t.banks[key]
	if !ok {
		bt = &BankTrack{Key: key, FirstIdx: t.n, State: core.NewBankState()}
		bt.FS.Init(t.cfg.Window, t.cfg.RateBuckets)
		t.banks[key] = bt
		t.order = append(t.order, bt)
	}
	return bt
}

// Observe folds one record into its bank (clustering state + feature
// state) and returns the bank. Records must arrive in stream order.
func (t *Tracker) Observe(rec *mce.CERecord) *BankTrack {
	bt := t.ensure(rec)
	bt.State.Add(t.n, rec)
	bt.FS.Observe(rec.Time.UnixNano())
	t.n++
	if rec.Time.After(t.last) {
		t.last = rec.Time
	}
	return bt
}

// Last returns the newest event time observed.
func (t *Tracker) Last() time.Time { return t.last }

// Banks returns the per-bank state in first-arrival order.
func (t *Tracker) Banks() []*BankTrack { return t.order }

// Features snapshots every bank at time `at`, in first-arrival order.
func (t *Tracker) Features(at time.Time) []BankFeatures {
	out := make([]BankFeatures, 0, len(t.order))
	for _, bt := range t.order {
		out = append(out, BankFeatures{Key: bt.Key, FirstIdx: bt.FirstIdx, F: bt.Snapshot(at)})
	}
	return out
}

// SortByRisk orders bank features by descending score under p, with a
// deterministic tie-break on first-arrival order. It returns the
// scores aligned with the sorted slice.
func SortByRisk(bf []BankFeatures, p Predictor) []float64 {
	scores := make([]float64, len(bf))
	for i := range bf {
		scores[i] = p.Score(&bf[i].F)
	}
	// Sort an index permutation so the scores stay aligned with bf.
	idx := make([]int, len(bf))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return bf[idx[a]].FirstIdx < bf[idx[b]].FirstIdx
	})
	outB := make([]BankFeatures, len(bf))
	outS := make([]float64, len(bf))
	for i, j := range idx {
		outB[i] = bf[j]
		outS[i] = scores[j]
	}
	copy(bf, outB)
	copy(scores, outS)
	return scores
}
