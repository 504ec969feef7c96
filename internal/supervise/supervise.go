// Package supervise is the self-healing layer of the online subsystem:
// a supervisor that keeps restartable units — astrad's per-site ingest
// pipelines — running across the faults the paper's fleet-health service
// is supposed to observe, not die from. A unit that fails (error return
// or panic, captured as a *parallel.PanicError) is restarted after a
// seeded-jitter exponential backoff; a unit that keeps failing exhausts
// its restart budget and moves to quarantined, where it stays — visible,
// counted, and out of the way — until the operator intervenes. The
// supervisor never lets one unit's failure touch another: isolation is
// the whole point.
//
// The design follows the DDR4 field study's operational lesson: repair
// actions must be automatic (restart, not page), bounded (budget, not
// retry forever), and observable (health ladder, transition hooks,
// metrics counters).
package supervise

import (
	"context"
	"sync"
	"time"

	"repro/internal/parallel"
	"repro/internal/simrand"
)

// State is a unit's position in the supervision ladder.
type State int

const (
	// StateRunning means the unit's run function is executing.
	StateRunning State = iota
	// StateBackoff means the unit failed and is waiting out its restart
	// delay.
	StateBackoff
	// StateQuarantined means the unit exhausted its restart budget and
	// will not be restarted. Terminal until the process restarts.
	StateQuarantined
	// StateStopped means the unit finished: its run function returned nil
	// with the context still live (clean completion), or the supervisor's
	// context was cancelled.
	StateStopped
)

// String renders the state for logs, /healthz and metrics.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateBackoff:
		return "backoff"
	case StateQuarantined:
		return "quarantined"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// Supervisor defaults.
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second
	DefaultBudget      = 5
	DefaultResetAfter  = time.Minute
	DefaultJitter      = 0.5
)

// Config tunes a Supervisor. The zero value is usable.
type Config struct {
	// BackoffBase is the delay before the first restart; each subsequent
	// consecutive failure doubles it up to BackoffMax. 0 means
	// DefaultBackoffBase (negative means no delay, for tests).
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth (0 means DefaultBackoffMax).
	BackoffMax time.Duration
	// Jitter is the fraction of each delay that is randomized: the actual
	// delay is uniform in [d*(1-Jitter), d*(1+Jitter)]. 0 means
	// DefaultJitter; negative disables jitter.
	Jitter float64
	// Seed drives the jitter stream (per unit, derived from the unit
	// name) so restart storms de-synchronize deterministically.
	Seed uint64
	// Budget is how many consecutive failures a unit may accumulate
	// before it is quarantined instead of restarted. 0 means
	// DefaultBudget; negative means unlimited restarts.
	Budget int
	// ResetAfter resets the consecutive-failure streak when a run
	// survives at least this long: a unit that crashes once a day is
	// sick, not dead. 0 means DefaultResetAfter; negative disables
	// resets.
	ResetAfter time.Duration
	// OnTransition, when set, observes every state change (restart
	// scheduled, restart fired, quarantine, stop). Called synchronously
	// from the unit's goroutine; it must not block.
	OnTransition func(Transition)
	// Now is the clock, injectable for tests (nil means time.Now).
	Now func() time.Time
}

// Transition is one observed state change.
type Transition struct {
	// Unit is the unit's name.
	Unit string
	// From and To bracket the change.
	From, To State
	// Err is the failure that caused it, if any (a panic surfaces as a
	// *parallel.PanicError).
	Err error
	// Delay is the backoff ahead of the next restart (To == StateBackoff).
	Delay time.Duration
	// Restarts is the unit's lifetime restart count after the change.
	Restarts uint64
}

// Health is a point-in-time view of one unit, shaped for /healthz.
type Health struct {
	Unit  string `json:"unit"`
	State string `json:"state"`
	// Restarts counts restarts fired over the unit's lifetime;
	// ConsecutiveFailures is the current streak driving the backoff and
	// the budget.
	Restarts            uint64 `json:"restarts"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	// LastError is the most recent failure, rendered ("" when none).
	LastError string `json:"lastError,omitempty"`
	// RetryInSeconds is how far away the next restart attempt is while in
	// backoff (0 otherwise).
	RetryInSeconds float64 `json:"retryInSeconds,omitempty"`
}

// Unit is one supervised restartable task.
type Unit struct {
	name string
	sup  *Supervisor
	rng  *simrand.Stream

	mu        sync.Mutex
	state     State
	fails     int
	restarts  uint64
	lastErr   error
	retryAt   time.Time
	quaranted uint64
}

// Supervisor owns a set of units and restarts them independently.
// Construct with New, start units with Go, then Wait for them after
// cancelling their context.
type Supervisor struct {
	cfg Config

	mu    sync.Mutex
	units []*Unit
	wg    sync.WaitGroup
}

// New builds a supervisor with defaults applied.
func New(cfg Config) *Supervisor {
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = DefaultJitter
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.ResetAfter == 0 {
		cfg.ResetAfter = DefaultResetAfter
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Supervisor{cfg: cfg}
}

// Go starts a named unit running fn under supervision and returns it.
// fn is restarted per the backoff/budget policy whenever it returns a
// non-nil error or panics; a nil return with the context still live
// stops the unit cleanly. The context ends the unit: in-flight runs see
// the cancellation, waiting backoffs are cut short.
func (s *Supervisor) Go(ctx context.Context, name string, fn func(context.Context) error) *Unit {
	u := &Unit{
		name:  name,
		sup:   s,
		state: StateRunning,
		rng:   simrand.NewStream(s.cfg.Seed).Derive("supervise:" + name),
	}
	s.mu.Lock()
	s.units = append(s.units, u)
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		u.loop(ctx, fn)
	}()
	return u
}

// Wait blocks until every unit has stopped or quarantined and its
// goroutine exited. Cancel the units' context first.
func (s *Supervisor) Wait() { s.wg.Wait() }

// Restarts sums restart counts across units.
func (s *Supervisor) Restarts() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, u := range s.units {
		u.mu.Lock()
		n += u.restarts
		u.mu.Unlock()
	}
	return n
}

// Quarantined counts units currently quarantined.
func (s *Supervisor) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, u := range s.units {
		if u.State() == StateQuarantined {
			n++
		}
	}
	return n
}

// Name returns the unit's name.
func (u *Unit) Name() string { return u.name }

// State returns the unit's current position.
func (u *Unit) State() State {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.state
}

// Health returns the unit's point-in-time view.
func (u *Unit) Health() Health {
	u.mu.Lock()
	defer u.mu.Unlock()
	h := Health{
		Unit:                u.name,
		State:               u.state.String(),
		Restarts:            u.restarts,
		ConsecutiveFailures: u.fails,
	}
	if u.lastErr != nil {
		h.LastError = u.lastErr.Error()
	}
	if u.state == StateBackoff {
		if in := u.retryAt.Sub(u.sup.cfg.Now()); in > 0 {
			h.RetryInSeconds = in.Seconds()
		}
	}
	return h
}

// transition applies a state change under the unit lock and reports it.
func (u *Unit) transition(to State, err error, delay time.Duration) {
	u.mu.Lock()
	from := u.state
	u.state = to
	if err != nil {
		u.lastErr = err
	}
	if to == StateBackoff {
		u.retryAt = u.sup.cfg.Now().Add(delay)
	}
	restarts := u.restarts
	u.mu.Unlock()
	if hook := u.sup.cfg.OnTransition; hook != nil && from != to {
		hook(Transition{Unit: u.name, From: from, To: to, Err: err, Delay: delay, Restarts: restarts})
	}
}

// delayFor computes the jittered exponential backoff for the given
// consecutive-failure count (1 = first failure).
func (u *Unit) delayFor(fails int) time.Duration {
	cfg := u.sup.cfg
	if cfg.BackoffBase < 0 {
		return 0
	}
	d := cfg.BackoffBase
	for i := 1; i < fails && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	if cfg.Jitter > 0 && d > 0 {
		// Uniform in [d*(1-j), d*(1+j)], drawn from the unit's seeded
		// stream so a fleet of failing units fans out deterministically.
		j := cfg.Jitter
		if j > 1 {
			j = 1
		}
		lo := float64(d) * (1 - j)
		span := 2 * j * float64(d)
		u.mu.Lock()
		f := u.rng.Float64()
		u.mu.Unlock()
		d = time.Duration(lo + f*span)
	}
	return d
}

// loop is the unit's lifecycle: run, and on failure back off and rerun
// until the budget quarantines it or the context stops it.
func (u *Unit) loop(ctx context.Context, fn func(context.Context) error) {
	for {
		start := u.sup.cfg.Now()
		err := runCaptured(ctx, fn)
		ran := u.sup.cfg.Now().Sub(start)

		if ctx.Err() != nil {
			// Shutdown: whatever the run returned, the unit is stopping.
			// Cancellation errors are not failures; anything else is kept
			// as lastErr for the post-mortem.
			if err == nil || err == ctx.Err() {
				u.transition(StateStopped, nil, 0)
			} else {
				u.transition(StateStopped, err, 0)
			}
			return
		}
		if err == nil {
			// Clean completion with a live context: the unit is done.
			u.transition(StateStopped, nil, 0)
			return
		}

		u.mu.Lock()
		if u.sup.cfg.ResetAfter > 0 && ran >= u.sup.cfg.ResetAfter {
			u.fails = 0
		}
		u.fails++
		fails := u.fails
		budget := u.sup.cfg.Budget
		exhausted := budget >= 0 && fails > budget
		u.mu.Unlock()

		if exhausted {
			u.mu.Lock()
			u.quaranted++
			u.mu.Unlock()
			u.transition(StateQuarantined, err, 0)
			return
		}
		delay := u.delayFor(fails)
		u.transition(StateBackoff, err, delay)
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				u.transition(StateStopped, nil, 0)
				return
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			u.transition(StateStopped, nil, 0)
			return
		}
		u.mu.Lock()
		u.restarts++
		u.mu.Unlock()
		u.transition(StateRunning, nil, 0)
	}
}

// runCaptured runs fn with panic capture: a panic anywhere below
// surfaces as a *parallel.PanicError carrying the panicking goroutine's
// stack, exactly like a pipeline-stage worker panic.
func runCaptured(ctx context.Context, fn func(context.Context) error) (err error) {
	defer parallel.Recover(&err)
	return fn(ctx)
}
