package syslog

import (
	"container/heap"
	"math/rand"
	"slices"
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

// heapAdapter runs container/heap over the same records, the reference
// for recHeap's push and pop.
type heapAdapter struct{ recHeap }

func (h *heapAdapter) Len() int      { return len(h.recHeap) }
func (h *heapAdapter) Swap(i, j int) { h.recHeap[i], h.recHeap[j] = h.recHeap[j], h.recHeap[i] }
func (h *heapAdapter) Push(x any)    { h.recHeap = append(h.recHeap, x.(Parsed)) }
func (h *heapAdapter) Pop() any {
	old := h.recHeap
	n := len(old)
	x := old[n-1]
	h.recHeap = old[:n-1]
	return x
}

// TestRecHeapMatchesContainerHeap drives random push/pop sequences with
// many equal timestamps through recHeap and through container/heap: both
// must pop the same records in the same order and hold the same slice
// layout after every operation, since a Checkpoint stores that layout and
// equal-second records must keep their served order.
func TestRecHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := sampleCE().Time
	for trial := 0; trial < 200; trial++ {
		var got recHeap
		want := &heapAdapter{}
		seq := 0
		for op := 0; op < 300; op++ {
			if len(got) == 0 || rng.Intn(3) != 0 {
				// Eight distinct seconds: most pushes tie with a queued
				// record. Addr numbers the records so ties stay telling.
				at := base.Add(time.Duration(rng.Intn(8)) * time.Second)
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
				seq++
				got.push(p)
				heap.Push(want, p)
			} else {
				g, w := got.pop(), heap.Pop(want).(Parsed)
				if g != w {
					t.Fatalf("trial %d op %d: pop = %+v, container/heap pops %+v", trial, op, g, w)
				}
			}
			if !slices.Equal(got, want.recHeap) {
				t.Fatalf("trial %d op %d: heap layout diverges from container/heap", trial, op)
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
