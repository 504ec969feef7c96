package supervise

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/simrand"
)

// fastCfg removes real delays so lifecycle tests run instantly.
func fastCfg() Config {
	return Config{BackoffBase: -1, Jitter: -1, Seed: 7}
}

func TestCleanStopNoRestart(t *testing.T) {
	s := New(fastCfg())
	var runs atomic.Int64
	u := s.Go(context.Background(), "clean", func(ctx context.Context) error {
		runs.Add(1)
		return nil
	})
	s.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if st := u.State(); st != StateStopped {
		t.Fatalf("state = %v, want stopped", st)
	}
	if h := u.Health(); h.LastError != "" {
		t.Fatalf("lastErr = %q, want none", h.LastError)
	}
}

func TestRestartOnErrorThenQuarantine(t *testing.T) {
	cfg := fastCfg()
	cfg.Budget = 3
	var trans []Transition
	var mu sync.Mutex
	cfg.OnTransition = func(tr Transition) {
		mu.Lock()
		trans = append(trans, tr)
		mu.Unlock()
	}
	s := New(cfg)
	var runs atomic.Int64
	boom := errors.New("boom")
	u := s.Go(context.Background(), "fail", func(ctx context.Context) error {
		runs.Add(1)
		return boom
	})
	s.Wait()
	// Budget 3 means: initial run + 3 restarts = 4 runs, then quarantine.
	if got := runs.Load(); got != 4 {
		t.Fatalf("runs = %d, want 4", got)
	}
	if st := u.State(); st != StateQuarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	if n := s.Quarantined(); n != 1 {
		t.Fatalf("Quarantined() = %d, want 1", n)
	}
	h := u.Health()
	if h.Restarts != 3 || h.State != "quarantined" || h.LastError != boom.Error() {
		t.Fatalf("health = %+v", h)
	}
	mu.Lock()
	defer mu.Unlock()
	var quarantines int
	for _, tr := range trans {
		if tr.To == StateQuarantined {
			quarantines++
			if tr.Err == nil {
				t.Fatalf("quarantine transition lost its error: %+v", tr)
			}
		}
	}
	if quarantines != 1 {
		t.Fatalf("quarantine transitions = %d, want 1", quarantines)
	}
}

func TestPanicCapturedAsPanicError(t *testing.T) {
	cfg := fastCfg()
	cfg.Budget = 1
	s := New(cfg)
	u := s.Go(context.Background(), "panicky", func(ctx context.Context) error {
		panic("kaboom")
	})
	s.Wait()
	if st := u.State(); st != StateQuarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	var pe *parallel.PanicError
	// s.Wait returned, so the unit's goroutine no longer writes lastErr.
	if !errors.As(u.lastErr, &pe) {
		t.Fatalf("lastErr = %T %v, want *parallel.PanicError", u.lastErr, u.lastErr)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v, want value kaboom with stack", pe)
	}
}

func TestContextCancelStopsBackoffEarly(t *testing.T) {
	cfg := Config{BackoffBase: time.Hour, BackoffMax: time.Hour, Jitter: -1, Budget: -1}
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	u := s.Go(ctx, "waiter", func(ctx context.Context) error {
		select {
		case ran <- struct{}{}:
		default:
		}
		return errors.New("transient")
	})
	<-ran
	// The unit is now headed into an hour-long backoff; cancellation must
	// cut it short.
	cancel()
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after cancel; backoff not interrupted")
	}
	if st := u.State(); st != StateStopped {
		t.Fatalf("state = %v, want stopped", st)
	}
}

func TestUnlimitedBudgetKeepsRestarting(t *testing.T) {
	cfg := fastCfg()
	cfg.Budget = -1
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int64
	s.Go(ctx, "energizer", func(ctx context.Context) error {
		if runs.Add(1) >= 20 {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		}
		return errors.New("again")
	})
	s.Wait()
	if got := runs.Load(); got < 20 {
		t.Fatalf("runs = %d, want >= 20 (unlimited budget)", got)
	}
}

func TestResetAfterClearsStreak(t *testing.T) {
	// A run that "survives" past ResetAfter (simulated clock) resets the
	// consecutive-failure streak, so the budget never exhausts.
	var now atomic.Int64 // fake nanos
	cfg := fastCfg()
	cfg.Budget = 2
	cfg.ResetAfter = time.Second
	cfg.Now = func() time.Time { return time.Unix(0, now.Load()) }
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int64
	u := s.Go(ctx, "slowfail", func(ctx context.Context) error {
		n := runs.Add(1)
		now.Add(int64(2 * time.Second)) // every run "lasts" 2s
		if n >= 10 {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		}
		return errors.New("periodic")
	})
	s.Wait()
	if got := runs.Load(); got < 10 {
		t.Fatalf("runs = %d, want >= 10 — streak should reset, never quarantine", got)
	}
	if st := u.State(); st == StateQuarantined {
		t.Fatal("unit quarantined despite streak resets")
	}
}

func TestBackoffGrowthAndJitterDeterminism(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		cfg := Config{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second, Jitter: 0.5, Seed: seed, Budget: -1}
		s := New(cfg)
		u := &Unit{name: "jit", sup: s, rng: simrand.NewStream(seed).Derive("supervise:jit")}
		var ds []time.Duration
		for f := 1; f <= 6; f++ {
			ds = append(ds, u.delayFor(f))
		}
		return ds
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
	// Envelope: delay f stays within [base*2^(f-1)*(1-j), min(cap, base*2^(f-1))*(1+j)]
	base, capd, j := 100*time.Millisecond, time.Second, 0.5
	for i, d := range a {
		nominal := base << i
		if nominal > capd {
			nominal = capd
		}
		lo := time.Duration(float64(nominal) * (1 - j))
		hi := time.Duration(float64(nominal) * (1 + j))
		if d < lo || d > hi {
			t.Fatalf("delay[%d] = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestHealthAndLookups(t *testing.T) {
	cfg := fastCfg()
	cfg.Budget = 0 // default applies → DefaultBudget
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	block := make(chan struct{})
	a := s.Go(ctx, "a", func(ctx context.Context) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	})
	b := s.Go(ctx, "b", func(ctx context.Context) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	})
	for _, u := range []*Unit{a, b} {
		if h := u.Health(); h.Unit != u.Name() || h.State != "running" {
			t.Fatalf("health of %s = %+v", u.Name(), h)
		}
	}
	close(block)
	s.Wait()
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateRunning: "running", StateBackoff: "backoff",
		StateQuarantined: "quarantined", StateStopped: "stopped",
		State(99): "unknown",
	}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
}
