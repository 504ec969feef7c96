package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// runBankStateOps drives one BankState through the Add/Merge/AppendFaults
// interleaving data encodes and checks the incremental classification
// against a fresh BankState over the same records after every
// AppendFaults, Errors included. It also checks that faults returned
// earlier keep their contents however the state grows afterwards.
//
// data[0] picks the bank's word layout: all words on one column (a
// column fault), or on one row (a row fault under RowClustering), or
// scattered (word or bank faults). Each later op byte adds a record,
// merges a short later shard, or classifies with RowClustering on or
// off. Records draw from 8 words, 3 line bits and 64 minutes, so words
// recur, bits repeat, single-bit words turn into single-word ones, and
// words tie on their first or last instant — odd words in another
// location, so a tie need not be an identical time value.
func runBankStateOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	layout := next()
	colOf := func(w int) int {
		switch layout % 3 {
		case 0:
			return 7
		case 1:
			return w
		}
		return w % 2 * 5 // a dominant column plus stragglers
	}
	rowOf := func(w int) int {
		if layout/3%2 == 0 {
			return 11
		}
		return w
	}
	var recs []mce.CERecord
	east := time.FixedZone("east", 3600)
	record := func() mce.CERecord {
		w, bit, minute := next()%8, next()%3, next()%64
		at := simtime.StudyStart.Add(time.Duration(minute) * time.Minute)
		if w%2 == 1 {
			at = at.In(east)
		}
		return mce.CERecord{
			Time:   at,
			Col:    colOf(w),
			RowRaw: rowOf(w),
			BitPos: 64*w + bit,
			Addr:   topology.PhysAddr(0x1000 + 0x40*w),
		}
	}
	key := BankKey{Node: 3, Slot: 1, Rank: 0, Bank: 2}
	type held struct{ got, want []Fault }
	var kept []held

	b := NewBankState()
	for ops := 0; len(data) > 0 && ops < 256; ops++ {
		switch op := next() % 8; {
		case op < 5:
			r := record()
			recs = append(recs, r)
			b.Add(len(recs)-1, &recs[len(recs)-1])
		case op == 5:
			side := NewBankState()
			for k := next()%4 + 1; k > 0; k-- {
				r := record()
				recs = append(recs, r)
				side.Add(len(recs)-1, &recs[len(recs)-1])
			}
			b.Merge(side)
		default:
			cfg := DefaultClusterConfig()
			cfg.RowClustering = op == 7
			got := b.AppendFaults(nil, key, cfg)
			ref := NewBankState()
			for i := range recs {
				ref.Add(i, &recs[i])
			}
			want := ref.AppendFaults(nil, key, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d records (RowClustering %v):\n got %+v\nwant %+v", len(recs), cfg.RowClustering, got, want)
			}
			kept = append(kept, held{got, want})
		}
	}
	for i, h := range kept {
		if !reflect.DeepEqual(h.got, h.want) {
			t.Fatalf("classification %d changed after later ops:\n got %+v\nwant %+v", i, h.got, h.want)
		}
	}
}

// TestBankStateIncrementalProperty: for random Add/Merge/AppendFaults
// interleavings, the cached classification always equals a fresh one,
// and earlier results never change.
func TestBankStateIncrementalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 2000; iter++ {
		data := make([]byte, 1+rng.Intn(160))
		rng.Read(data)
		runBankStateOps(t, data)
	}
}

func FuzzBankStateIncremental(f *testing.F) {
	for _, seed := range [][]byte{
		// One word: classify, repeat its bit, add a second bit, classify.
		{1, 6, 0, 0, 0, 6, 0, 0, 1, 6, 0, 1, 2, 6},
		// Scattered words appearing between classifications.
		{1, 0, 0, 0, 0, 6, 0, 1, 0, 1, 6, 0, 2, 0, 2, 6, 0, 3, 1, 3, 7},
		// One column, grown by merges.
		{0, 0, 0, 0, 5, 5, 2, 1, 1, 1, 2, 2, 2, 6, 5, 1, 3, 2, 9, 7},
		// Four words on a column and a straggler, all on one row: a row
		// fault under RowClustering, a column fault and a word without.
		{2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 6, 0, 0, 0, 1, 2, 8, 7, 6},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runBankStateOps(t, data)
	})
}
