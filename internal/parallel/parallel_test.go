package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		var hits [37]atomic.Int32
		ForEach(workers, len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSerialOrder(t *testing.T) {
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestForEachCtxCompletesUncanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var hits atomic.Int32
		if err := ForEachCtx(context.Background(), workers, 16, func(int) { hits.Add(1) }); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if hits.Load() != 16 {
			t.Fatalf("workers=%d: ran %d of 16 items", workers, hits.Load())
		}
	}
}

func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var hits atomic.Int32
		err := ForEachCtx(ctx, workers, 100, func(int) { hits.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The pool path may hand out up to `workers` items before the
		// dispatcher observes cancellation; nothing beyond that may start.
		if got := hits.Load(); int(got) > workers {
			t.Fatalf("workers=%d: %d items ran after pre-cancel", workers, got)
		}
	}
}

func TestForEachCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int32
	err := ForEachCtx(ctx, 4, 1000, func(i int) {
		if hits.Add(1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := hits.Load(); got >= 1000 {
		t.Fatal("cancellation skipped nothing")
	}
}

func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := ForEachCtx(ctx, 1, 1000, func(int) { time.Sleep(time.Millisecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestForEachCtxPanicPropagates pins the pool's panic contract: a panic in
// fn must surface on the caller's goroutine as a *PanicError carrying the
// original value and the worker's stack, the pool must fully drain (no
// goroutine leak, no deadlock on the unbuffered dispatch channel), and
// dispatch must stop early instead of running all remaining items.
func TestForEachCtxPanicPropagates(t *testing.T) {
	var hits atomic.Int32
	var rec any
	func() {
		defer func() { rec = recover() }()
		ForEach(4, 10000, func(i int) {
			hits.Add(1)
			if i == 3 {
				panic("boom at 3")
			}
		})
	}()
	pe, ok := rec.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *PanicError", rec, rec)
	}
	if pe.Value != "boom at 3" {
		t.Errorf("PanicError.Value = %v, want original panic value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty, want worker stack")
	}
	if got := hits.Load(); got >= 10000 {
		t.Error("dispatch did not stop after the panic")
	}
}

// TestForEachCtxSerialPanicUntouched checks the inline path panics
// transparently, like the plain loop it replaces.
func TestForEachCtxSerialPanicUntouched(t *testing.T) {
	var rec any
	func() {
		defer func() { rec = recover() }()
		ForEach(1, 5, func(i int) {
			if i == 2 {
				panic("serial boom")
			}
		})
	}()
	if rec != "serial boom" {
		t.Fatalf("serial path recovered %v, want raw panic value", rec)
	}
}

// TestForEachCtxFirstPanicWins: with many concurrent panics exactly one is
// reported and the call still returns (drain completes).
func TestForEachCtxFirstPanicWins(t *testing.T) {
	var rec any
	func() {
		defer func() { rec = recover() }()
		ForEach(8, 64, func(i int) { panic(i) })
	}()
	pe, ok := rec.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T, want *PanicError", rec)
	}
	if _, ok := pe.Value.(int); !ok {
		t.Fatalf("PanicError.Value = %v (%T), want one of the item indices", pe.Value, pe.Value)
	}
}

// TestForEachCtxDrainsOnEveryPath checks at run time that the pool is
// joined before ForEachCtx returns, on each of its exit paths: no call of
// fn is still running, and the goroutine count falls back to its
// pre-call value. The paths run in a loop rather than as subtests,
// because a subtest's goroutine would count against the baseline.
func TestForEachCtxDrainsOnEveryPath(t *testing.T) {
	for _, path := range []struct {
		name      string
		preCancel bool
		timeout   time.Duration // 0: a minute, never reached
		work      func(i int, cancel context.CancelFunc)
		want      error
		panics    bool
	}{
		{name: "complete"},
		{name: "pre-cancelled", preCancel: true, want: context.Canceled},
		{name: "cancel-midway", work: func(i int, cancel context.CancelFunc) {
			if i == 8 {
				cancel()
			}
		}, want: context.Canceled},
		{name: "deadline", timeout: 5 * time.Millisecond, want: context.DeadlineExceeded},
		{name: "panic", work: func(i int, _ context.CancelFunc) {
			if i == 3 {
				panic("boom")
			}
		}, panics: true},
	} {
		before := runtime.NumGoroutine()
		timeout := path.timeout
		if timeout == 0 {
			timeout = time.Minute
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		if path.preCancel {
			cancel()
		}
		var inFlight atomic.Int32
		var err error
		var rec any
		func() {
			defer func() { rec = recover() }()
			err = ForEachCtx(ctx, 4, 200, func(i int) {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				if path.work != nil {
					path.work(i, cancel)
				}
				time.Sleep(time.Millisecond)
			})
		}()
		cancel()
		if n := inFlight.Load(); n != 0 {
			t.Errorf("%s: %d calls of fn still running after ForEachCtx returned", path.name, n)
		}
		if _, isPanic := rec.(*PanicError); isPanic != path.panics {
			t.Errorf("%s: recovered %v", path.name, rec)
		}
		if !errors.Is(err, path.want) {
			t.Errorf("%s: err = %v, want %v", path.name, err, path.want)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after the call, %d before", path.name, got, before)
		}
	}
}
