package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRecoverPreservesWorkerStack(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := RunCtx(context.Background(), workers,
			func(context.Context) error { return nil },
			func(context.Context) error { panic("deep failure") },
		)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		// The stack must be the task's (where the panic happened), not
		// RunCtx's caller's.
		if !strings.Contains(string(pe.Stack), "ctx_test.go") {
			t.Errorf("workers=%d: stack lost the panic site:\n%s", workers, pe.Stack)
		}
	}
}

func TestRunCtxFirstErrorInTaskOrder(t *testing.T) {
	e2 := errors.New("task 2")
	e5 := errors.New("task 5")
	fail := func(err error) func(context.Context) error {
		return func(context.Context) error { return err }
	}
	ok := func(context.Context) error { return nil }
	// With a single worker, execution is in task order and task 2 fails
	// first; later tasks never start.
	var ran atomic.Int32
	count := func(context.Context) error { ran.Add(1); return nil }
	err := RunCtx(context.Background(), 1, count, count, fail(e2), count, count, fail(e5))
	if !errors.Is(err, e2) {
		t.Errorf("serial: err = %v, want task 2's", err)
	}
	if ran.Load() != 2 {
		t.Errorf("serial: %d tasks ran after the failure point", ran.Load())
	}
	// Concurrently, whichever failure is observed, the reported error is
	// the first in task order among tasks that ran.
	err = RunCtx(context.Background(), 4, ok, ok, fail(e2), ok, ok, fail(e5))
	if !errors.Is(err, e2) && !errors.Is(err, e5) {
		t.Errorf("parallel: err = %v, want a task error", err)
	}
}

func TestRunCtxCancelSkipsUnstarted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	tasks := make([]func(context.Context) error, 64)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) error {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			return nil
		}
	}
	err := RunCtx(ctx, 1, tasks...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if ran.Load() == 64 {
		t.Error("cancellation skipped nothing")
	}
}

func TestRunCtxPanicBecomesError(t *testing.T) {
	err := RunCtx(context.Background(), 4,
		func(context.Context) error { return nil },
		func(context.Context) error { panic("task died") },
	)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "task died" {
		t.Errorf("Value = %v", pe.Value)
	}
}

func TestPollStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Poll(ctx, 1); err != nil {
		t.Error("Poll checked the context off-stride")
	}
	if err := Poll(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Error("Poll missed the context on-stride")
	}
	if err := Poll(ctx, 8192); !errors.Is(err, context.Canceled) {
		t.Error("Poll missed the context at the stride boundary")
	}
}
