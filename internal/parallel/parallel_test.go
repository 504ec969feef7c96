package parallel

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestRunAllTasks(t *testing.T) {
	for _, w := range []int{1, 4} {
		var count atomic.Int64
		tasks := make([]func(context.Context) error, 33)
		for i := range tasks {
			tasks[i] = func(context.Context) error { count.Add(1); return nil }
		}
		if err := RunCtx(context.Background(), w, tasks...); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if count.Load() != 33 {
			t.Errorf("workers=%d: ran %d tasks", w, count.Load())
		}
	}
}

func TestRunSerialOrder(t *testing.T) {
	var order []int
	step := func(i int) func(context.Context) error {
		return func(context.Context) error { order = append(order, i); return nil }
	}
	if err := RunCtx(context.Background(), 1, step(0), step(1), step(2)); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("serial RunCtx out of order: %v", order)
		}
	}
}
