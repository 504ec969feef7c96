// Package predict is the failure-prediction subsystem: online feature
// extraction over per-bank CE history, pluggable predictors (a
// rule-ladder over DDR4 field-study indicators and a trained logistic
// regression), ground-truth evaluation against the fault model's known
// injections (precision/recall/F1 and lead-time distributions over a
// horizon), and a retirement-policy payoff simulator composing
// predictions with internal/retire and internal/ecc.
//
// The paper's operators could only describe memory failures after the
// fact; the prediction literature ("Investigating Memory Failure
// Prediction Across CPU Architectures", "First CE Matters") predicts
// uncorrectable errors from CE history. Unlike those field studies,
// this repo generates the underlying faults, so it has perfect ground
// truth: every DUE's cause, time, and location are known.
//
// Determinism contract: FeatureState is a pure function of the
// sequence of Observe calls. The stream engine applies feature updates
// strictly in arrival order on every path (record-at-a-time ingest or
// micro-batches), so stream-computed features are
// bit-identical to a batch recomputation — the same stream==batch
// property the fault pipeline has, extended to floating-point
// accumulators by never merging them.
package predict

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

func log1p(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log1p(x)
}

const nanosPerDay = int64(24 * time.Hour)

// floorDay converts unix nanoseconds to a day ordinal (floor division,
// robust to pre-epoch timestamps from hostile inputs).
func floorDay(nano int64) int64 {
	d := nano / nanosPerDay
	if nano%nanosPerDay < 0 {
		d--
	}
	return d
}

// FeatureState incrementally accumulates the temporal features of one
// bank's CE stream: burst dynamics (inter-arrival mean/std/median,
// minimum gap, windowed rate) and long-term properties (first-CE age,
// cumulative count, days active). Spatial features come from the
// bank's core.BankState at snapshot time, not from this struct.
//
// The update path (Observe) allocates nothing; all state is fixed-size
// except the rate window's ring, which Init allocates once. Not safe
// for concurrent use — the owner (stream engine bank entry, batch
// tracker) serializes access.
type FeatureState struct {
	ces        int64
	firstNano  int64
	lastNano   int64
	prevNano   int64 // previous observation in arrival order
	lastDay    int64
	activeDays int32
	minGapNano int64 // smallest positive arrival gap; 0 = none yet
	gaps       stats.Welford
	gapQ       stats.P2Quantile
	rw         stats.RateWindow
}

// Init prepares the state with a rate window of the given width and
// bucket count (the stream engine passes its own window config so
// stream and batch features agree). It must be called before Observe.
func (s *FeatureState) Init(window time.Duration, buckets int) {
	*s = FeatureState{}
	s.gapQ.Init(0.5)
	s.rw.Init(window, buckets)
}

// Observe folds one CE at the given unix-nano timestamp into the
// state. Calls must be made in arrival order; gaps are measured
// between consecutive arrivals (the telemetry stream is near-sorted,
// so arrival order ≈ event order, and using it keeps every ingest
// path's arithmetic identical).
func (s *FeatureState) Observe(nano int64) {
	if s.ces == 0 {
		s.firstNano, s.lastNano = nano, nano
		s.lastDay = floorDay(nano)
		s.activeDays = 1
	} else {
		gap := nano - s.prevNano
		if gap < 0 {
			gap = 0
		}
		gsec := float64(gap) / float64(time.Second)
		s.gaps.Add(gsec)
		s.gapQ.Add(gsec)
		if gap > 0 && (s.minGapNano == 0 || gap < s.minGapNano) {
			s.minGapNano = gap
		}
		if nano < s.firstNano {
			s.firstNano = nano
		}
		if nano > s.lastNano {
			s.lastNano = nano
		}
		if d := floorDay(nano); d != s.lastDay {
			s.activeDays++
			s.lastDay = d
		}
	}
	s.prevNano = nano
	s.ces++
	s.rw.AddNano(nano)
}

// CEs returns the number of observations folded in.
func (s *FeatureState) CEs() int64 { return s.ces }

// Features is one bank's feature vector at a moment in time, combining
// the temporal accumulator with the bank's spatial structure. All
// fields are float64 so the vector form is a direct copy; the rule
// ladder reads named fields, the logistic regression reads Vector.
type Features struct {
	// Long-term properties (the First-CE paper's indicators).
	CEs        float64 // cumulative CE count
	AgeSeconds float64 // now − first CE
	SpanHours  float64 // last CE − first CE
	ActiveDays float64 // distinct day transitions observed + 1

	// Burst dynamics.
	GapMeanSeconds float64 // mean inter-arrival gap
	GapStdSeconds  float64 // population std of gaps
	GapP50Seconds  float64 // online median gap (P² estimate)
	MinGapSeconds  float64 // smallest positive gap
	WindowCEs      float64 // CEs inside the rate window ending now

	// Spatial structure (the error-bits paper's indicators).
	Words          float64
	MultiBitWords  float64
	MaxBitsPerWord float64
	DistinctBits   float64
	DQLanes        float64
	DistinctRows   float64
	DistinctCols   float64
}

// FeatureNames names the Vector positions, in order.
var FeatureNames = []string{
	"log1p_ces",
	"log1p_age_seconds",
	"log1p_span_hours",
	"log1p_active_days",
	"log1p_gap_mean_seconds",
	"log1p_gap_std_seconds",
	"log1p_gap_p50_seconds",
	"log1p_min_gap_seconds",
	"log1p_window_ces",
	"log1p_words",
	"log1p_multibit_words",
	"log1p_max_bits_per_word",
	"log1p_distinct_bits",
	"log1p_dq_lanes",
	"log1p_distinct_rows",
	"log1p_distinct_cols",
}

// NumFeatures is the Vector length.
const NumFeatures = 16

// Vector appends the log1p-compressed feature vector to dst and
// returns it. Every raw feature is a non-negative count or duration
// with a heavy tail (one fault emitted ~91,000 errors in the paper),
// so log1p is applied uniformly; the regression's standardization
// handles the remaining scale differences.
func (f *Features) Vector(dst []float64) []float64 {
	return append(dst,
		log1p(f.CEs),
		log1p(f.AgeSeconds),
		log1p(f.SpanHours),
		log1p(f.ActiveDays),
		log1p(f.GapMeanSeconds),
		log1p(f.GapStdSeconds),
		log1p(f.GapP50Seconds),
		log1p(f.MinGapSeconds),
		log1p(f.WindowCEs),
		log1p(f.Words),
		log1p(f.MultiBitWords),
		log1p(f.MaxBitsPerWord),
		log1p(f.DistinctBits),
		log1p(f.DQLanes),
		log1p(f.DistinctRows),
		log1p(f.DistinctCols),
	)
}

// Snapshot derives the feature vector at time `at` from the temporal
// accumulator plus the bank's spatial summary. It advances the rate
// window's head to `at` (mutating, like the engine's per-node windows),
// so callers hold the owner's lock. `at` should be ≥ the newest event
// (the engine passes the fleet-wide newest timestamp).
func (s *FeatureState) Snapshot(sp core.BankSpatial, at time.Time) Features {
	var f Features
	if s.ces == 0 {
		return f
	}
	f.CEs = float64(s.ces)
	f.AgeSeconds = float64(at.UnixNano()-s.firstNano) / float64(time.Second)
	if f.AgeSeconds < 0 {
		f.AgeSeconds = 0
	}
	f.SpanHours = float64(s.lastNano-s.firstNano) / float64(time.Hour)
	f.ActiveDays = float64(s.activeDays)
	f.GapMeanSeconds = s.gaps.Mean()
	f.GapStdSeconds = s.gaps.Std()
	f.GapP50Seconds = s.gapQ.Value()
	f.MinGapSeconds = float64(s.minGapNano) / float64(time.Second)
	f.WindowCEs = float64(s.rw.Count(at))
	f.Words = float64(sp.Words)
	f.MultiBitWords = float64(sp.MultiBitWords)
	f.MaxBitsPerWord = float64(sp.MaxBitsPerWord)
	f.DistinctBits = float64(sp.DistinctBits)
	f.DQLanes = float64(sp.DQLanes)
	f.DistinctRows = float64(sp.DistinctRows)
	f.DistinctCols = float64(sp.DistinctCols)
	return f
}

// BankFeatures pairs a bank's identity with its feature snapshot; the
// stream engine's views and the batch tracker both produce these, in
// first-arrival order (FirstIdx is the arrival index of the bank's
// first record — the risk ranking's tie-break).
type BankFeatures struct {
	Key      core.BankKey
	FirstIdx int
	F        Features
}
