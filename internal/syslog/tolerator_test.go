package syslog

import (
	"container/heap"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
)

// lineSource is an endless reader of in-order CE, DUE and HET lines, three
// per second, rendered on demand into a reused buffer so the reader itself
// never allocates.
type lineSource struct {
	n   int
	buf []byte
	off int
}

func (s *lineSource) Read(p []byte) (int, error) {
	if s.off == len(s.buf) {
		at := sampleCE().Time.Add(time.Duration(s.n/3) * time.Second)
		s.buf, s.off = s.buf[:0], 0
		switch s.n % 3 {
		case 0:
			r := sampleCE()
			r.Time = at
			s.buf = AppendCE(s.buf, r)
		case 1:
			r := sampleDUE()
			r.Time = at
			s.buf = AppendDUE(s.buf, r)
		default:
			r := sampleHET()
			r.Time = at
			s.buf = AppendHET(s.buf, r)
		}
		s.buf = append(s.buf, '\n')
		s.n++
	}
	n := copy(p, s.buf[s.off:])
	s.off += n
	return n, nil
}

// TestTolerantScannerZeroAlloc pins that the scanner as astrad configures
// it — dedup ring and reorder heap both on — allocates nothing per line
// once warm: the ring reuses its entry buffers, and the heap holds records
// unboxed.
func TestTolerantScannerZeroAlloc(t *testing.T) {
	sc := NewScannerConfig(&lineSource{}, ScanConfig{DedupWindow: 64, ReorderWindow: 5 * time.Minute})
	// Warm up past a full ring and a full reorder window (900 lines at
	// three per second), so every buffer has reached its steady size.
	for i := 0; i < 3000; i++ {
		if !sc.Scan() {
			t.Fatalf("scan %d stopped: %v", i, sc.Err())
		}
	}
	if n := testing.AllocsPerRun(3000, func() {
		if !sc.Scan() {
			panic(sc.Err())
		}
	}); n != 0 {
		t.Errorf("warm tolerant Scan: %v allocs per record, want 0", n)
	}
	if st := sc.Stats(); st.Duplicated != 0 || st.Reordered != 0 || st.DroppedOutOfOrder != 0 {
		t.Errorf("in-order unique lines were not passed straight through: %+v", st)
	}
}

// parsedHeap runs container/heap over the records themselves, ordered by
// Parsed.Time: the reference for recHeap's push and pop.
type parsedHeap []Parsed

func (h parsedHeap) Len() int           { return len(h) }
func (h parsedHeap) Less(i, j int) bool { return h[i].Time().Before(h[j].Time()) }
func (h parsedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *parsedHeap) Push(x any)        { *h = append(*h, x.(Parsed)) }
func (h *parsedHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestRecHeapMatchesContainerHeap drives random push/pop sequences with
// many equal timestamps through recHeap, keyed by slots into a slab, and
// through container/heap over the records: both must pop the same
// records in the same order and hold the same array order after every
// operation, since a Checkpoint stores that order and equal-second
// records must keep their served order.
func TestRecHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := sampleCE().Time
	for trial := 0; trial < 200; trial++ {
		var got recHeap
		var slab []Parsed
		want := &parsedHeap{}
		for op := 0; op < 300; op++ {
			if len(got) == 0 || rng.Intn(3) != 0 {
				// Eight distinct seconds, a quarter of them half a second
				// on: most pushes tie with a queued record. Addr numbers
				// the records so ties stay telling.
				at := base.Add(time.Duration(rng.Intn(8)) * time.Second)
				if rng.Intn(4) == 0 {
					at = at.Add(500 * time.Millisecond)
				}
				seq := len(slab)
				var p Parsed
				switch rng.Intn(3) {
				case 0:
					p = Parsed{Kind: KindCE, CE: sampleCE()}
					p.CE.Time, p.CE.Addr = at, topology.PhysAddr(seq)
				case 1:
					p = Parsed{Kind: KindDUE, DUE: sampleDUE()}
					p.DUE.Time, p.DUE.Addr = at, topology.PhysAddr(seq)
				default:
					p = Parsed{Kind: KindHET, HET: sampleHET()}
					p.HET.Time, p.HET.Addr = at, topology.PhysAddr(seq)
				}
				slab = append(slab, p)
				got.push(keyOf(p.Time(), int32(seq)))
				heap.Push(want, p)
			} else {
				g, w := slab[got.pop()], heap.Pop(want).(Parsed)
				if g != w {
					t.Fatalf("trial %d op %d: pop = %+v, container/heap pops %+v", trial, op, g, w)
				}
			}
			if len(got) != len(*want) {
				t.Fatalf("trial %d op %d: heap length %d, container/heap %d", trial, op, len(got), len(*want))
			}
			for i, k := range got {
				if slab[k.slot] != (*want)[i] {
					t.Fatalf("trial %d op %d: heap layout diverges from container/heap at %d", trial, op, i)
				}
			}
		}
	}
}

// TestRestoreUnderOtherDedupWindow restores a checkpoint whose dedup ring
// holds lines into scanners with dedup off and with a smaller window (an
// operator restarting with new flags over old state): the restored ring
// is hashed without panicking and keeps matching the lines it holds.
func TestRestoreUnderOtherDedupWindow(t *testing.T) {
	ce := FormatCE(sampleCE()) + "\n"
	due := FormatDUE(sampleDUE()) + "\n"
	first := NewScannerConfig(strings.NewReader(ce+due), ScanConfig{DedupWindow: 4})
	for first.Scan() {
	}
	cp := first.Checkpoint()
	for _, tc := range []struct {
		window int
		dups   int
	}{{0, 0}, {1, 1}} {
		sc := NewScannerConfig(strings.NewReader(ce), ScanConfig{DedupWindow: tc.window})
		if err := sc.Restore(cp); err != nil {
			t.Fatal(err)
		}
		for sc.Scan() {
		}
		if got := sc.Stats().Duplicated; got != tc.dups {
			t.Errorf("window %d: Duplicated = %d after restore, want %d", tc.window, got, tc.dups)
		}
	}
}
