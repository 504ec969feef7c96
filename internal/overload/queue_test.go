package overload

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// checkBooks asserts the accounting invariant the whole admission layer
// rests on: offered == drained + depth + shed, with shed = rejected +
// evicted and offered = admitted + rejected.
func checkBooks(t *testing.T, st QueueStats) {
	t.Helper()
	if st.Shed != st.Rejected+st.Evicted {
		t.Fatalf("shed %d != rejected %d + evicted %d", st.Shed, st.Rejected, st.Evicted)
	}
	if st.Offered != st.Admitted+st.Rejected {
		t.Fatalf("offered %d != admitted %d + rejected %d", st.Offered, st.Admitted, st.Rejected)
	}
	if st.Offered != st.Drained+uint64(st.Depth)+st.Shed {
		t.Fatalf("offered %d != drained %d + depth %d + shed %d",
			st.Offered, st.Drained, st.Depth, st.Shed)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 8})
	for i := 0; i < 5; i++ {
		if !q.Offer(i) {
			t.Fatalf("offer %d shed below watermark", i)
		}
	}
	got, ok := q.Take(0)
	q.Done()
	if !ok || len(got) != 5 {
		t.Fatalf("Take = %v, %v; want 5 items", got, ok)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("Take[%d] = %d, want %d (order broken)", i, v, i)
		}
	}
	checkBooks(t, q.Stats())
}

// TestQueueRingGrowsOnDemand wraps the ring, then grows it past several
// doublings: records keep their FIFO order across each unwrap, and the
// ring stops at Capacity however long the queue runs.
func TestQueueRingGrowsOnDemand(t *testing.T) {
	const capacity = 1000
	q := NewQueue[int](Config{Capacity: capacity, Policy: PolicyDropOldest})
	next, want := 0, 0
	offer := func(n int) {
		for i := 0; i < n; i++ {
			q.Offer(next)
			next++
		}
	}
	take := func(n int) {
		got, _ := q.Take(n)
		q.Done()
		for _, v := range got {
			if v != want {
				t.Fatalf("Take yielded %d, want %d (order broken)", v, want)
			}
			want++
		}
	}
	offer(minRing)
	take(minRing / 2)
	offer(minRing / 2) // the ring is now full and wrapped
	offer(3 * minRing) // grows twice from the wrapped state
	if got := len(q.buf); got != 4*minRing {
		t.Fatalf("ring size %d after growing to depth %d, want %d", got, q.Depth(), 4*minRing)
	}
	take(0)
	offer(5 * capacity) // saturates: drop-oldest evicts at the bound
	if got := len(q.buf); got != capacity {
		t.Fatalf("ring size %d at saturation, want Capacity %d", got, capacity)
	}
	want = next - capacity // the evicted records are gone
	take(0)
	checkBooks(t, q.Stats())
}

func TestQueueTakeMax(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 16})
	for i := 0; i < 10; i++ {
		q.Offer(i)
	}
	got, ok := q.Take(3)
	q.Done()
	if !ok || len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Take(3) = %v, %v", got, ok)
	}
	if d := q.Depth(); d != 7 {
		t.Fatalf("depth after Take(3) = %d, want 7", d)
	}
	checkBooks(t, q.Stats())
}

func TestQueueRejectPolicyHysteresis(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 10, High: 8, Low: 4, Policy: PolicyReject})
	shed := 0
	for i := 0; i < 20; i++ {
		if !q.Offer(i) {
			shed++
		}
	}
	st := q.Stats()
	// Depth reaches High=8, then every further offer sheds.
	if st.Depth != 8 || shed != 12 || !st.Saturated || st.Saturations != 1 {
		t.Fatalf("after burst: depth=%d shed=%d saturated=%v saturations=%d",
			st.Depth, shed, st.Saturated, st.Saturations)
	}
	checkBooks(t, st)

	// Drain to 5 (> Low): still shedding — hysteresis holds.
	if got, _ := q.Take(3); len(got) != 3 {
		t.Fatal("short take")
	}
	q.Done()
	if q.Offer(99) {
		t.Fatal("admitted above low watermark while saturated")
	}
	// Drain to 2 (<= Low): admission resumes.
	if got, _ := q.Take(3); len(got) != 3 {
		t.Fatal("short take")
	}
	q.Done()
	if !q.Offer(100) {
		t.Fatal("shed below low watermark after drain")
	}
	st = q.Stats()
	if st.Saturated {
		t.Fatal("still saturated below low watermark")
	}
	checkBooks(t, st)
}

func TestQueueDropOldestPolicy(t *testing.T) {
	var shedCB atomic.Int64
	q := NewQueue[int](Config{
		Capacity: 4, High: 4, Low: 1, Policy: PolicyDropOldest,
		OnShed: func(n int) { shedCB.Add(int64(n)) },
	})
	for i := 0; i < 10; i++ {
		if !q.Offer(i) {
			t.Fatalf("drop-oldest shed the newcomer %d", i)
		}
	}
	got, _ := q.Take(0)
	q.Done()
	// The freshest 4 survive; 0..5 were evicted.
	want := []int{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept %v, want %v (oldest not dropped)", got, want)
		}
	}
	st := q.Stats()
	if st.Evicted != 6 || st.Rejected != 0 {
		t.Fatalf("evicted=%d rejected=%d, want 6/0", st.Evicted, st.Rejected)
	}
	if shedCB.Load() != int64(st.Shed) {
		t.Fatalf("OnShed saw %d, stats say %d", shedCB.Load(), st.Shed)
	}
	checkBooks(t, st)
}

// TestQueueOfferBatchMatchesOffer: OfferBatch makes exactly the
// admission, shed and hysteresis decisions of one Offer per record —
// same queue contents, same books, same shed total — under both policies
// and across watermark crossings and Close, while reporting each batch's
// sheds to OnShed in one call.
func TestQueueOfferBatchMatchesOffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, policy := range []Policy{PolicyReject, PolicyDropOldest} {
		var oneShed, batchShed, batchCalls int
		one := NewQueue[int](Config{Capacity: 16, High: 12, Low: 5, Policy: policy,
			OnShed: func(n int) { oneShed += n }})
		batch := NewQueue[int](Config{Capacity: 16, High: 12, Low: 5, Policy: policy,
			OnShed: func(n int) { batchShed += n; batchCalls++ }})
		next := 0
		for step := 0; step < 400; step++ {
			if step == 350 {
				one.Close()
				batch.Close()
			}
			if rng.Intn(3) == 0 && (one.Depth() > 0 || step >= 350) {
				k := rng.Intn(9)
				a, _ := one.Take(k)
				b, _ := batch.Take(k)
				one.Done()
				batch.Done()
				if !equalInts(a, b) {
					t.Fatalf("%v step %d: Take %v vs %v", policy, step, a, b)
				}
				continue
			}
			vs := make([]int, rng.Intn(20))
			admitted := 0
			for i := range vs {
				vs[i] = next
				next++
				if one.Offer(vs[i]) {
					admitted++
				}
			}
			calls := batchCalls
			if got := batch.OfferBatch(vs); got != admitted {
				t.Fatalf("%v step %d: OfferBatch admitted %d, Offer %d", policy, step, got, admitted)
			}
			if batchCalls > calls+1 {
				t.Fatalf("%v step %d: one batch made %d OnShed calls", policy, step, batchCalls-calls)
			}
			if so, sb := one.Stats(), batch.Stats(); so != sb {
				t.Fatalf("%v step %d: stats\n Offer      %+v\n OfferBatch %+v", policy, step, so, sb)
			}
		}
		st := batch.Stats()
		checkBooks(t, st)
		if st.Shed == 0 || st.Saturations == 0 || oneShed != batchShed || uint64(batchShed) != st.Shed {
			t.Fatalf("%v: shed %d (Offer saw %d, OfferBatch %d), saturations %d", policy, st.Shed, oneShed, batchShed, st.Saturations)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueueCloseDrainsThenStops(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 8})
	q.Offer(1)
	q.Offer(2)
	q.Close()
	if q.Offer(3) {
		t.Fatal("offer after close admitted")
	}
	got, ok := q.Take(0)
	q.Done()
	if !ok || len(got) != 2 {
		t.Fatalf("Take after close = %v, %v; want remaining 2", got, ok)
	}
	if _, ok := q.Take(0); ok {
		t.Fatal("Take on closed empty queue reported ok")
	}
	checkBooks(t, q.Stats())
}

// TestQueueFreezeConsistency is the checkpoint contract: under a
// concurrent producer and drainer, every Freeze must observe
// consumed + queued == admitted - evicted exactly (no record in two
// places, none in neither).
func TestQueueFreezeConsistency(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 64, High: 64, Low: 16, Policy: PolicyReject})
	var consumed atomic.Int64 // records the drainer has fully applied
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch, ok := q.Take(7)
			consumed.Add(int64(len(batch)))
			q.Done()
			if !ok {
				return
			}
		}
	}()

	var offered, shed int
	for i := 0; i < 5000; i++ {
		if !q.Offer(i) {
			shed++
		}
		offered++
		if i%97 == 0 {
			q.Freeze(func(queued []int, st QueueStats) {
				// Drainer quiescent: consumed is stable here.
				got := consumed.Load() + int64(len(queued))
				want := int64(st.Admitted - st.Evicted)
				if got != want {
					t.Errorf("freeze %d: consumed %d + queued %d != admitted-evicted %d",
						i, consumed.Load(), len(queued), want)
				}
			})
		}
	}
	q.Close()
	<-done
	st := q.Stats()
	checkBooks(t, st)
	if consumed.Load() != int64(st.Drained) {
		t.Fatalf("consumed %d != drained %d", consumed.Load(), st.Drained)
	}
	if uint64(offered) != st.Offered || uint64(shed) != st.Shed {
		t.Fatalf("caller saw %d offered / %d shed, queue says %d/%d",
			offered, shed, st.Offered, st.Shed)
	}
}

// TestQueueConcurrentBooks hammers the queue from several producers and
// checks the final accounting balances exactly.
func TestQueueConcurrentBooks(t *testing.T) {
	for _, pol := range []Policy{PolicyReject, PolicyDropOldest} {
		t.Run(pol.String(), func(t *testing.T) {
			q := NewQueue[int](Config{Capacity: 128, High: 96, Low: 32, Policy: pol})
			var consumed atomic.Int64
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				rng := rand.New(rand.NewSource(1))
				for {
					batch, ok := q.Take(1 + rng.Intn(50))
					consumed.Add(int64(len(batch)))
					q.Done()
					if !ok {
						return
					}
				}
			}()
			var wg sync.WaitGroup
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < 10000; i++ {
						q.Offer(p*10000 + i)
					}
				}(p)
			}
			wg.Wait()
			q.Close()
			<-drained
			st := q.Stats()
			if st.Offered != 40000 {
				t.Fatalf("offered = %d, want 40000", st.Offered)
			}
			if st.Depth != 0 {
				t.Fatalf("depth = %d after full drain", st.Depth)
			}
			checkBooks(t, st)
			if consumed.Load() != int64(st.Drained) {
				t.Fatalf("consumed %d != drained %d", consumed.Load(), st.Drained)
			}
		})
	}
}

// TestQueueDropOldestConcurrentFreeze interleaves drop-oldest eviction
// with a hammering Freeze observer: every frozen snapshot must be
// internally consistent (books balance at that instant, depth matches
// the queued slice, each producer's records appear in offer order —
// eviction removes from the head, it never reorders survivors), and the
// final accounting must balance with evictions actually exercised.
func TestQueueDropOldestConcurrentFreeze(t *testing.T) {
	var shedSeen atomic.Int64
	q := NewQueue[int](Config{
		Capacity: 64, High: 48, Low: 16,
		Policy: PolicyDropOldest,
		OnShed: func(n int) { shedSeen.Add(int64(n)) },
	})

	const producers, perProducer = 3, 6000
	encode := func(p, i int) int { return p*1_000_000 + i }

	// Throttled drainer: small batches with a spin between them so the
	// queue saturates and evicts while Freeze runs.
	var drainedSeqs [producers][]int
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			batch, ok := q.Take(8)
			for _, v := range batch {
				drainedSeqs[v/1_000_000] = append(drainedSeqs[v/1_000_000], v%1_000_000)
			}
			q.Done()
			if !ok {
				return
			}
			for i := 0; i < 2000; i++ {
				_ = i // burn a little time without sleeping
			}
		}
	}()

	stop := make(chan struct{})
	freezes := make(chan int)
	go func() {
		var count int
		for {
			select {
			case <-stop:
				freezes <- count
				return
			default:
			}
			q.Freeze(func(queued []int, st QueueStats) {
				count++
				if len(queued) != st.Depth {
					t.Errorf("frozen depth %d != %d queued records", st.Depth, len(queued))
				}
				if st.Shed != st.Rejected+st.Evicted ||
					st.Offered != st.Admitted+st.Rejected ||
					st.Offered != st.Drained+uint64(st.Depth)+st.Shed {
					t.Errorf("frozen books don't balance: %+v", st)
				}
				last := [producers]int{-1, -1, -1}
				for _, v := range queued {
					p, i := v/1_000_000, v%1_000_000
					if i <= last[p] {
						t.Errorf("producer %d out of order in frozen snapshot: %d after %d", p, i, last[p])
					}
					last[p] = i
				}
			})
		}
	}()

	// Offer in rounds until the queue has demonstrably evicted, so the
	// test never depends on scheduler luck to reach saturation.
	offered := 0
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p, base int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					if !q.Offer(encode(p, base+i)) {
						t.Errorf("drop-oldest Offer returned false on an open queue")
					}
				}
			}(p, round*perProducer)
		}
		wg.Wait()
		offered += producers * perProducer
		if q.Stats().Evicted > 0 {
			break
		}
	}
	close(stop)
	if n := <-freezes; n == 0 {
		t.Fatal("freezer never ran")
	}
	q.Close()
	<-drained

	st := q.Stats()
	checkBooks(t, st)
	if st.Offered != uint64(offered) {
		t.Fatalf("offered = %d, want %d", st.Offered, offered)
	}
	if st.Evicted == 0 || st.Saturations == 0 {
		t.Fatalf("drop-oldest run never saturated/evicted (evicted=%d saturations=%d); shrink the drainer or raise the rate",
			st.Evicted, st.Saturations)
	}
	if st.Rejected != 0 {
		t.Fatalf("drop-oldest rejected %d records on an open queue", st.Rejected)
	}
	if shedSeen.Load() != int64(st.Shed) {
		t.Fatalf("OnShed saw %d, queue counted %d", shedSeen.Load(), st.Shed)
	}
	// Eviction preserves relative order among survivors: each producer's
	// drained sequence must be strictly increasing.
	for p, seq := range drainedSeqs {
		for i := 1; i < len(seq); i++ {
			if seq[i] <= seq[i-1] {
				t.Fatalf("producer %d drained out of order: %d after %d", p, seq[i], seq[i-1])
			}
		}
	}
}

func TestQueueConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero-capacity": {},
		"low>=high":     {Capacity: 10, High: 4, Low: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewQueue accepted bad config", name)
				}
			}()
			NewQueue[int](cfg)
		}()
	}
	// Defaults: High=Capacity, Low=Capacity/2.
	q := NewQueue[int](Config{Capacity: 10})
	st := q.Stats()
	if st.High != 10 || st.Low != 5 {
		t.Fatalf("defaults: high=%d low=%d, want 10/5", st.High, st.Low)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{PolicyReject, PolicyDropOldest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("ParsePolicy accepted nonsense")
	}
}
