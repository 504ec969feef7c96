// Package parallel holds the one bounded task group the batch pipeline
// fans out through (RunCtx, which Study.Analyze runs its independent
// analyses on) and the crash-safety helpers every pipeline stage shares.
//
// Determinism is the caller's contract: tasks write disjoint,
// caller-owned outputs, so the result is a pure function of the inputs —
// never of the scheduler. See DESIGN.md §8.
//
// Crash safety (DESIGN.md §10):
//
//   - Cancellation: RunCtx stops starting tasks once its context is done
//     and returns ctx.Err(); long loops poll the context with Poll.
//   - Panic isolation: a panic on a task goroutine never kills the
//     process. RunCtx returns it as a *PanicError carrying the task's
//     stack, and Recover (at the Generate / Build / Cluster / Analyze
//     boundary) converts a panic on the calling goroutine the same way.
package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic captured as an error: the recovered value
// plus the stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value and the captured worker stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic: %v\n%s", e.Value, e.Stack)
}

// Recover converts an in-flight panic into a *PanicError assigned to
// *errp, carrying the stack of the goroutine that panicked. Use it as
// `defer parallel.Recover(&err)` at a pipeline-stage boundary so a panic
// anywhere below surfaces as an ordinary error instead of crashing the
// process.
func Recover(errp *error) {
	if v := recover(); v != nil {
		*errp = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// capture runs fn on the current goroutine, converting a panic into a
// *PanicError.
func capture(fn func() error) (err error) {
	defer Recover(&err)
	return fn()
}

// RunCtx executes the given tasks with at most workers running
// concurrently. workers <= 1 runs them inline in slice order. Tasks must
// synchronize only through their own disjoint outputs (the helper adds
// the final happens-before edge when it returns).
//
// Once any task fails (or ctx is done) tasks that have not yet started are
// skipped; already-running tasks are waited for. The reported error is the
// first failure in task order among the tasks that ran, falling back to
// ctx.Err(); a task panic is returned as a *PanicError.
func RunCtx(ctx context.Context, workers int, tasks ...func(ctx context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 1 {
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := capture(func() error { return t(ctx) }); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	ran := make([]bool, len(tasks))
	var failed atomic.Bool
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for i, t := range tasks {
		go func(i int, t func(ctx context.Context) error) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if failed.Load() || ctx.Err() != nil {
				return
			}
			ran[i] = true
			if err := capture(func() error { return t(ctx) }); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}(i, t)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && ran[i] {
			return err
		}
	}
	return ctx.Err()
}

// Poll returns ctx.Err() every strideth call site iteration: callers in
// hot loops write `if err := parallel.Poll(ctx, i); err != nil { return
// err }` with i their loop index, paying one atomic-free modulo per
// iteration and a context check every 8192.
func Poll(ctx context.Context, i int) error {
	if i&8191 != 0 {
		return nil
	}
	return ctx.Err()
}
