// Package core implements the paper's primary contribution: the
// methodology for analyzing memory failures on a large-scale system.
// It clusters raw correctable-error records into faults, classifies fault
// modes, and runs every distributional, positional, environmental and
// uncorrectable-error analysis in the paper's evaluation (Figs 4-15,
// §3.2-§3.5). The headline methodological point — that analyzing errors
// instead of faults leads to wrong conclusions — is embodied in the paired
// error/fault outputs of every analysis.
//
// The package consumes only what the platform actually exposes: parsed
// syslog records (no ground-truth fault IDs) and sensor data. Validation
// against ground truth lives in the tests and the dataset self-check.
package core

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"time"

	"repro/internal/faultmodel"
	"repro/internal/mce"
	"repro/internal/parallel"
	"repro/internal/topology"
)

// FaultMode is the classification the clusterer can assign from observable
// data. It mirrors faultmodel.Mode except that single-row is absent: the
// platform's CE records carry no usable row information (§3.2), so row
// faults are observationally indistinguishable from bank faults.
type FaultMode int

// Observable fault modes.
const (
	ModeSingleBit FaultMode = iota
	ModeSingleWord
	ModeSingleColumn
	ModeSingleBank
	// ModeSingleRow is only assigned by the WithRowClustering ablation,
	// which pretends the row field were trustworthy; the paper's
	// platform could not produce it.
	ModeSingleRow
	// NumFaultModes is the number of observable modes.
	NumFaultModes
)

// String names the mode as in Fig 4a.
func (m FaultMode) String() string {
	switch m {
	case ModeSingleBit:
		return "single-bit"
	case ModeSingleWord:
		return "single-word"
	case ModeSingleColumn:
		return "single-column"
	case ModeSingleBank:
		return "single-bank"
	case ModeSingleRow:
		return "single-row"
	default:
		return "unknown"
	}
}

// Fault is a cluster of correctable errors attributed to one underlying
// hardware fault.
type Fault struct {
	// Node, Slot, Rank, Bank locate the fault's device structures.
	Node topology.NodeID
	Slot topology.Slot
	Rank int
	Bank int
	// Mode is the observable classification.
	Mode FaultMode
	// Col is the shared column for single-column faults (else -1).
	Col int
	// Addr is the shared word address for single-bit/single-word faults
	// (else 0). Addresses are stable opaque identifiers; their row bits
	// are scrambled by the platform.
	Addr topology.PhysAddr
	// Bit is the shared line-bit position for single-bit faults (else -1).
	Bit int
	// NErrors is the number of CE records attributed to the fault.
	NErrors int
	// First and Last bound the fault's observed activity.
	First, Last time.Time
	// Errors are indices into the input record slice: each word's errors
	// in input order, words in address order. Callers must not mutate
	// Errors: a one-word fault's list aliases its BankState's, which the
	// stream engine keeps appending to.
	Errors []int
}

// Region returns the rack region of the fault's node.
func (f Fault) Region() topology.Region { return f.Node.Region() }

// ClusterConfig tunes the clustering thresholds.
type ClusterConfig struct {
	// ColMinWords is the minimum number of distinct word addresses
	// sharing a column before they merge into a single-column fault.
	ColMinWords int
	// BankMinWords is the minimum number of distinct word addresses
	// (not already explained by a column) before the remainder of a bank
	// merges into a single-bank fault. Below it, word clusters stand as
	// independent single-bit/single-word faults — two independent stuck
	// bits in one bank must not masquerade as a bank fault.
	BankMinWords int
	// RowClustering enables the ablation that trusts the (scrambled) row
	// bits as stable identifiers and recovers single-row faults; the
	// paper's analysis could not do this (§3.2).
	RowClustering bool
	// RowMinWords is the single-row analogue of ColMinWords.
	RowMinWords int
	// Parallelism bounds the worker pool Cluster shards the grouping scan
	// and per-bank classification across: 0 uses runtime.GOMAXPROCS(0),
	// 1 restores the serial code path. Banks are independent by
	// construction, so the fault list is bit-identical at every setting.
	Parallelism int
}

// DefaultClusterConfig returns the thresholds used by the reproduction.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{ColMinWords: 2, BankMinWords: 3, RowMinWords: 2}
}

// BankKey addresses one DRAM bank in the system. It is the grouping key
// shared by the batch clusterer and the incremental stream engine
// (internal/stream): both accumulate per-bank state under this key and
// classify it with the same code, so their fault outputs agree by
// construction.
type BankKey struct {
	Node topology.NodeID
	Slot topology.Slot
	Rank int8
	Bank int8
}

// RecordBankKey returns the bank a CE record belongs to.
func RecordBankKey(r *mce.CERecord) BankKey {
	return BankKey{Node: r.Node, Slot: r.Slot, Rank: int8(r.Rank), Bank: int8(r.Bank)}
}

// lineBits is a fixed-size bitset over codeword line-bit positions
// (LineBit values are at most topology.MaxLineBitPosition), replacing the
// map[int]struct{} the grouping scan used to allocate per word group.
type lineBits struct {
	words [(topology.MaxLineBitPosition + 64) / 64]uint64
	n     int
}

// set adds bit i and reports whether it was new.
func (b *lineBits) set(i int) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.n++
	return true
}

// union folds another bitset in, keeping the distinct-bit count exact.
func (b *lineBits) union(o *lineBits) {
	n := 0
	for w := range b.words {
		b.words[w] |= o.words[w]
		n += bits.OnesCount64(b.words[w])
	}
	b.n = n
}

// wordGroup accumulates the errors observed on one word address.
type wordGroup struct {
	addr        topology.PhysAddr
	col         int
	rowBits     int
	bits        lineBits
	firstBit    int
	errors      []int
	first, last time.Time
	// shape indexes the cached fault (BankState.shapes) the word belongs
	// to while the bank's classification is valid.
	shape int32
}

// BankState accumulates the word groups of one bank, one CE record at a
// time. It is the unit of incremental clustering: batch Cluster builds one
// per bank during its grouping scan, and the stream engine keeps one per
// bank for the lifetime of the stream, re-deriving faults on demand via
// AppendFaults. Classification is a pure function of the accumulated
// state, so the order queries interleave with Add calls never changes the
// resulting faults.
//
// Re-deriving costs only what changed. Classification reads the set of
// words, each word's anchor fields (fixed when the word first appears)
// and whether it holds exactly one distinct bit, so the last result is
// kept and rerun only when a word appears, a word's distinct-bit count
// leaves 1, or a Merge happens. Between those, Add keeps each cached
// fault's NErrors, First and Last current, and AppendFaults rebuilds the
// Errors of just the faults whose words gained errors.
type BankState struct {
	words map[topology.PhysAddr]*wordGroup

	// The cached classification: valid until an input of it changes,
	// for the key and thresholds it was derived under. sorted holds the
	// classified words by address, added the words not yet merged into
	// it; shapes' member slices point into sorted.
	valid  bool
	key    BankKey
	cfg    ClusterConfig
	sorted []*wordGroup
	added  []*wordGroup
	shapes []faultShape
}

// faultShape is one classified fault and the word groups it covers.
// NErrors, First and Last are tallied when the shape is classified and
// kept current by Add; fill rebuilds Errors once the words gained errors
// (stale), and tallies afresh when Add could not decide (retally).
type faultShape struct {
	f              Fault
	groups         []*wordGroup
	stale, retally bool
}

// tally sets the fault's NErrors, First and Last from its words.
func (s *faultShape) tally() {
	f := &s.f
	f.NErrors = 0
	f.First, f.Last = s.groups[0].first, s.groups[0].last
	for _, g := range s.groups {
		f.NErrors += len(g.errors)
		if g.first.Before(f.First) {
			f.First = g.first
		}
		if g.last.After(f.Last) {
			f.Last = g.last
		}
	}
	s.stale, s.retally = true, false
}

// note folds one more error of a member word, at time t, into the
// tallied fields: a new extreme is the fault's, whichever word holds it.
// Only a tie with a differently represented equal instant (another
// location; == compares representations) makes tally's answer depend on
// word order, so that case is left to a fresh tally.
func (s *faultShape) note(t time.Time) {
	f := &s.f
	f.NErrors++
	switch {
	case t.Before(f.First):
		f.First = t
	case t.Equal(f.First) && t != f.First:
		s.retally = true
	}
	switch {
	case t.After(f.Last):
		f.Last = t
	case t.Equal(f.Last) && t != f.Last:
		s.retally = true
	}
	s.stale = true
}

// fill returns the fault with Errors current. A one-word fault's Errors
// is a capped alias of the word's append-only list, so later appends
// land past its length and a fault returned earlier keeps its contents;
// a multi-word fault concatenates its words in address order.
func (s *faultShape) fill() Fault {
	if s.retally {
		s.tally()
	}
	if !s.stale {
		return s.f
	}
	s.stale = false
	f := &s.f
	if len(s.groups) == 1 {
		errs := s.groups[0].errors
		f.Errors = errs[:len(errs):len(errs)]
	} else {
		f.Errors = make([]int, 0, f.NErrors)
		for _, g := range s.groups {
			f.Errors = append(f.Errors, g.errors...)
		}
	}
	return *f
}

// NewBankState returns an empty accumulator.
func NewBankState() *BankState {
	return &BankState{words: map[topology.PhysAddr]*wordGroup{}}
}

// Add folds one CE record into the bank. i is the caller's index for the
// record (batch: position in the input slice; stream: arrival number);
// it is recorded in the eventual Fault.Errors. Records must be added in
// index order for the per-fault error lists to come out in input order.
func (b *BankState) Add(i int, r *mce.CERecord) {
	g, ok := b.words[r.Addr]
	if !ok {
		g = &wordGroup{
			addr:     r.Addr,
			col:      r.Col,
			rowBits:  r.RowRaw,
			firstBit: r.LineBit(),
			errors:   make([]int, 0, 4),
			first:    r.Time,
			last:     r.Time,
		}
		b.words[r.Addr] = g
		b.added = append(b.added, g)
		b.valid = false
	}
	if g.bits.set(r.LineBit()) && g.bits.n == 2 {
		// The word stopped being single-bit.
		b.valid = false
	}
	g.errors = append(g.errors, i)
	if r.Time.Before(g.first) {
		g.first = r.Time
	}
	if r.Time.After(g.last) {
		g.last = r.Time
	}
	if b.valid {
		b.shapes[g.shape].note(r.Time)
	}
}

// Words returns the number of distinct word addresses seen.
func (b *BankState) Words() int { return len(b.words) }

// Errors returns the number of CE records folded in.
func (b *BankState) Errors() int {
	n := 0
	for _, g := range b.words {
		n += len(g.errors)
	}
	return n
}

// Merge folds a later shard's accumulator into b. Every record index in o
// must follow every index already in b (contiguous shards merged in shard
// order), so b's first-seen anchor fields win and o's errors append after
// b's — exactly the serial Add order.
func (b *BankState) Merge(o *BankState) {
	b.valid = false
	for addr, og := range o.words {
		g, ok := b.words[addr]
		if !ok {
			b.words[addr] = og
			b.added = append(b.added, og)
			continue
		}
		g.bits.union(&og.bits)
		g.errors = append(g.errors, og.errors...)
		if og.first.Before(g.first) {
			g.first = og.first
		}
		if og.last.After(g.last) {
			g.last = og.last
		}
	}
}

// AppendFaults classifies the bank's accumulated word groups and appends
// the resulting faults, choosing the smallest fault footprint consistent
// with the group structure — the field-study convention (a bank rarely
// hosts two simultaneous independent faults, but the two-word case is
// deliberately kept separate so that two independent stuck bits never
// masquerade as a bank fault). The accumulator is not consumed: the same
// state can be classified again after further Add calls.
func (b *BankState) AppendFaults(faults []Fault, key BankKey, cfg ClusterConfig) []Fault {
	cfg.Parallelism = 0 // not a classification input
	if !b.valid || key != b.key || cfg != b.cfg {
		// Deterministic order: by address.
		b.sorted = insertWordGroups(b.sorted, b.added)
		b.added = b.added[:0]
		b.shapes = classifyGroups(b.shapes[:0], key, b.sorted, cfg)
		for i := range b.shapes {
			b.shapes[i].tally()
			for _, g := range b.shapes[i].groups {
				g.shape = int32(i)
			}
		}
		b.valid, b.key, b.cfg = true, key, cfg
	}
	for i := range b.shapes {
		faults = append(faults, b.shapes[i].fill())
	}
	return faults
}

// Cluster groups CE records into faults and classifies each fault's mode.
// Records may be in any order; the per-fault Errors indices refer to the
// input slice. The algorithm follows the established field-study
// methodology (Sridharan & Liberty; Levy et al.):
//
//  1. errors sharing a word address form a word cluster; one distinct bit
//     position means single-bit, several mean single-word;
//  2. >= ColMinWords word clusters sharing a column within one bank merge
//     into a single-column fault;
//  3. >= BankMinWords remaining word clusters in one bank merge into a
//     single-bank fault; fewer stand as independent word-level faults.
//
// With cfg.RowClustering (an ablation the real platform could not run,.
// §3.2), step 2.5 merges word clusters sharing row bits into single-row
// faults.
//
// Cancelling ctx aborts the clustering and returns the context's error; a
// panic in any worker is recovered and returned as a *parallel.PanicError.
func Cluster(ctx context.Context, records []mce.CERecord, cfg ClusterConfig) (faults []Fault, err error) {
	defer parallel.Recover(&err)
	workers := parallel.Workers(cfg.Parallelism)
	var grouped bankGroups
	if workers <= 1 || len(records) < 2*minGroupShard {
		grouped, err = groupRecords(ctx, records, 0, len(records))
		if err != nil {
			return nil, err
		}
	} else {
		// Shard the grouping scan over contiguous record ranges and merge
		// shard-by-shard: contiguous ranges mean a bank (or word) first
		// seen in shard k was first seen globally in shard k, so folding
		// shards in order reproduces the serial first-appearance order
		// and per-group error order exactly.
		shards := parallel.NumChunks(workers, len(records))
		parts := make([]bankGroups, shards)
		err = parallel.ForEachChunkCtx(ctx, workers, len(records), func(ctx context.Context, shard, lo, hi int) error {
			part, err := groupRecords(ctx, records, lo, hi)
			if err != nil {
				return err
			}
			parts[shard] = part
			return nil
		})
		if err != nil {
			return nil, err
		}
		grouped = parts[0]
		for _, part := range parts[1:] {
			grouped.merge(part)
		}
	}

	banks, order := grouped.banks, grouped.order
	if workers <= 1 || len(order) < 2 {
		for i, key := range order {
			if err := parallel.Poll(ctx, i); err != nil {
				return nil, err
			}
			faults = banks[key].AppendFaults(faults, key, cfg)
		}
		return faults, nil
	}
	shards := parallel.NumChunks(workers, len(order))
	parts := make([][]Fault, shards)
	err = parallel.ForEachChunkCtx(ctx, workers, len(order), func(ctx context.Context, shard, lo, hi int) error {
		var fs []Fault
		for i, key := range order[lo:hi] {
			if err := parallel.Poll(ctx, i); err != nil {
				return err
			}
			fs = banks[key].AppendFaults(fs, key, cfg)
		}
		parts[shard] = fs
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, fs := range parts {
		total += len(fs)
	}
	faults = make([]Fault, 0, total)
	for _, fs := range parts {
		faults = append(faults, fs...)
	}
	return faults, nil
}

// minGroupShard keeps the grouping scan serial for small inputs where the
// per-shard map setup would cost more than the scan itself.
const minGroupShard = 1 << 14

// bankGroups is the grouping-scan output: per-bank accumulators plus the
// banks' first-appearance order.
type bankGroups struct {
	banks map[BankKey]*BankState
	order []BankKey
}

// groupRecords builds per-bank accumulators from records[lo:hi]. Error
// indices are global (the caller's full slice), so sharded scans can be
// merged. Cancellation is polled every few thousand records.
func groupRecords(ctx context.Context, records []mce.CERecord, lo, hi int) (bankGroups, error) {
	// Pre-size for the common shape: errors concentrate on few banks, so
	// the bank map stays small relative to the record count.
	banks := make(map[BankKey]*BankState, (hi-lo)/256+8)
	var order []BankKey // deterministic output ordering
	for i := lo; i < hi; i++ {
		if err := parallel.Poll(ctx, i-lo); err != nil {
			return bankGroups{}, err
		}
		r := &records[i]
		key := RecordBankKey(r)
		bank, ok := banks[key]
		if !ok {
			bank = NewBankState()
			banks[key] = bank
			order = append(order, key)
		}
		bank.Add(i, r)
	}
	return bankGroups{banks: banks, order: order}, nil
}

// merge folds a later shard's groups into bg. bg must cover records that
// all precede o's, so bg's first-seen metadata (anchor record fields,
// bank order) wins and o's errors append after bg's.
func (bg *bankGroups) merge(o bankGroups) {
	for _, key := range o.order {
		bank, ok := bg.banks[key]
		if !ok {
			bg.banks[key] = o.banks[key]
			bg.order = append(bg.order, key)
			continue
		}
		bank.Merge(o.banks[key])
	}
}

// dominanceFrac is the fraction of a bank's word groups that must share
// one column (or row, under the ablation) for that structure to be carved
// out as its own fault when the bank also has stragglers.
const dominanceFrac = 0.8

// classifyGroups appends the faults of address-sorted word groups as
// shapes; every member slice it stores is a subslice of groups or freshly
// built, so it stays valid while groups is.
func classifyGroups(shapes []faultShape, key BankKey, groups []*wordGroup, cfg ClusterConfig) []faultShape {
	base := Fault{Node: key.Node, Slot: key.Slot, Rank: int(key.Rank), Bank: int(key.Bank), Col: -1, Bit: -1}
	// wordFault classifies the one word groups[i].
	wordFault := func(groups []*wordGroup, i int) faultShape {
		g := groups[i]
		f := base
		f.Addr = g.addr
		if g.bits.n == 1 {
			f.Mode = ModeSingleBit
			f.Bit = g.firstBit
		} else {
			f.Mode = ModeSingleWord
		}
		return faultShape{f: f, groups: groups[i : i+1]}
	}

	switch len(groups) {
	case 0:
		return shapes
	case 1:
		return append(shapes, wordFault(groups, 0))
	}

	// Column structure of the bank.
	byCol := map[int][]*wordGroup{}
	domCol, domColN := -1, 0
	for _, g := range groups {
		byCol[g.col] = append(byCol[g.col], g)
		if n := len(byCol[g.col]); n > domColN || (n == domColN && g.col < domCol) {
			domCol, domColN = g.col, n
		}
	}
	if len(byCol) == 1 && len(groups) >= cfg.ColMinWords {
		f := base
		f.Mode = ModeSingleColumn
		f.Col = groups[0].col
		return append(shapes, faultShape{f: f, groups: groups})
	}

	// Row structure (ablation only: the platform's row bits are opaque).
	if cfg.RowClustering {
		byRow := map[int]int{}
		for _, g := range groups {
			byRow[g.rowBits]++
		}
		if len(byRow) == 1 && len(groups) >= cfg.RowMinWords {
			f := base
			f.Mode = ModeSingleRow
			return append(shapes, faultShape{f: f, groups: groups})
		}
	}

	// Two scattered words: two independent word-level faults.
	if len(groups) == 2 {
		return append(shapes, wordFault(groups, 0), wordFault(groups, 1))
	}

	// A dominant column with a few stragglers: carve out the column
	// fault, classify the remainder recursively.
	if domColN >= cfg.ColMinWords && float64(domColN) >= dominanceFrac*float64(len(groups)) {
		f := base
		f.Mode = ModeSingleColumn
		f.Col = domCol
		shapes = append(shapes, faultShape{f: f, groups: byCol[domCol]})
		var rest []*wordGroup
		for _, g := range groups {
			if g.col != domCol {
				rest = append(rest, g)
			}
		}
		return classifyGroups(shapes, key, rest, cfg)
	}

	// Many scattered words: one bank fault.
	if len(groups) >= cfg.BankMinWords {
		f := base
		f.Mode = ModeSingleBank
		return append(shapes, faultShape{f: f, groups: groups})
	}
	for i := range groups {
		shapes = append(shapes, wordFault(groups, i))
	}
	return shapes
}

// insertWordGroups merges added into the address-sorted sorted (in
// place when capacity allows) and returns the result. Addresses are
// distinct, so the order is total.
func insertWordGroups(sorted, added []*wordGroup) []*wordGroup {
	if len(added) == 0 {
		return sorted
	}
	slices.SortFunc(added, func(a, b *wordGroup) int { return cmp.Compare(a.addr, b.addr) })
	i, j := len(sorted)-1, len(added)-1
	sorted = append(sorted, added...)
	for k := len(sorted) - 1; j >= 0; k-- {
		if i >= 0 && sorted[i].addr > added[j].addr {
			sorted[k] = sorted[i]
			i--
		} else {
			sorted[k] = added[j]
			j--
		}
	}
	return sorted
}

// TrueModeObservable maps a ground-truth fault mode to the mode a perfect
// observer without row information would assign — the reference against
// which clustering recall is measured. Single-row faults surface as
// single-bank (>= 3 distinct words) or word-level faults.
func TrueModeObservable(m faultmodel.Mode, distinctWords int, cfg ClusterConfig) FaultMode {
	switch m {
	case faultmodel.SingleBit:
		return ModeSingleBit
	case faultmodel.SingleWord:
		return ModeSingleWord
	case faultmodel.SingleColumn:
		if distinctWords >= cfg.ColMinWords {
			return ModeSingleColumn
		}
		return ModeSingleBit
	case faultmodel.SingleRow, faultmodel.SingleBank:
		if distinctWords >= cfg.BankMinWords {
			return ModeSingleBank
		}
		return ModeSingleBit
	default:
		return ModeSingleBit
	}
}
