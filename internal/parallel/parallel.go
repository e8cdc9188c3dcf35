package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic that escaped fn on a pool worker. ForEachCtx
// re-raises it on the calling goroutine, so the panic surfaces where the
// work was requested instead of crashing the process from an anonymous
// goroutine — but the original panic value and the stack of the worker
// that panicked travel along for debugging.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // stack of the panicking worker, captured at recover time
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n\nworker stack:\n%s", e.Value, e.Stack)
}

// ForEach runs fn(0..n-1) on a pool of workers, blocking until every call
// returns. workers == 0 means GOMAXPROCS — the one place that default
// lives. With an effective pool of <= 1 (or n <= 1) it degrades to an
// inline loop, so callers get the serial path — and serial determinism —
// for free.
func ForEach(workers, n int, fn func(int)) {
	_ = ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done no
// further item starts, and the call returns ctx.Err(). Items already in
// flight run to completion — fn is never interrupted mid-call — so on a
// non-nil return between 0 and n-1 trailing items were skipped, never a
// gap in the middle of a worker's current item. A nil return means every
// item ran. The worker pool is always fully drained before returning;
// ForEachCtx leaks no goroutines on any path.
//
// If fn panics, the pool stops dispatching, drains, and the first panic
// (by recover order) is re-raised on the caller's goroutine as a
// *PanicError carrying the original value and worker stack. On the serial
// path the panic propagates untouched, exactly as a plain loop would.
func ForEachCtx(ctx context.Context, workers, n int, fn func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(i)
		}
		return nil
	}
	var (
		wg        sync.WaitGroup
		panicked  atomic.Bool
		panicOnce sync.Once
		pv        *PanicError
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The dispatch loop selects on ctx.Done and unconditionally
			// closes next, so this drain always terminates; a second
			// Done arm here would race the panic-drain protocol.
			for i := range next {
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() {
								pv = &PanicError{Value: r, Stack: debug.Stack()}
							})
							panicked.Store(true)
						}
					}()
					fn(i)
				}(i)
			}
		}()
	}
	var err error
dispatch:
	for i := 0; i < n; i++ {
		if panicked.Load() {
			break dispatch
		}
		select {
		case next <- i:
		case <-done:
			err = ctx.Err()
			break dispatch
		}
	}
	close(next)
	// Bounded join: next is closed on every path (including ctx.Done),
	// each worker exits its drain loop at most one task later, and the
	// panic re-raise below needs all workers parked first.
	wg.Wait()
	if pv != nil {
		panic(pv)
	}
	return err
}
