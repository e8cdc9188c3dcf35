// Package parallel is a sanctioned concurrency package in this fixture:
// every blocking operation here must be cancellable.
package parallel

import (
	"context"
	"io"
	"os/exec"
	"sync"
)

// Send blocks forever if nobody receives.
func Send(ch chan int) {
	ch <- 1 // want "bare channel send in Send is not cancellable"
}

// Recv blocks forever if nobody sends.
func Recv(ch chan int) int {
	return <-ch // want "bare channel receive in Recv is not cancellable"
}

// Drain blocks until the channel closes.
func Drain(ch chan int) int {
	n := 0
	for range ch { // want "range over channel in Drain is not cancellable"
		n++
	}
	return n
}

// WaitTwo has no default and no Done arm.
func WaitTwo(a, b chan int) int {
	select { // want "select with no default in WaitTwo is not cancellable"
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// GoodSelect carries a ctx.Done arm; no finding.
func GoodSelect(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return -1
	}
}

// GoodSelectVar resolves the Done channel through a variable.
func GoodSelectVar(ctx context.Context, ch chan int) int {
	done := ctx.Done()
	select {
	case v := <-ch:
		return v
	case <-done:
		return -1
	}
}

// TrySelect never blocks; no finding.
func TrySelect(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// Join waits without a cancellation path.
func Join(wg *sync.WaitGroup) {
	wg.Wait() // want "sync.WaitGroup.Wait in Join is not cancellable"
}

// BadCmd reaps a child the context cannot kill.
func BadCmd() error {
	cmd := exec.Command("true")
	if err := cmd.Start(); err != nil {
		return err
	}
	return cmd.Wait() // want "exec.Cmd.Wait in BadCmd is not cancellable"
}

// CtxCmd builds the child with CommandContext, but construction is no
// cancellation guard: the reap still parks outside any ctx.Done() select.
func CtxCmd(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "true")
	if err := cmd.Start(); err != nil {
		return err
	}
	return cmd.Wait() // want "exec.Cmd.Wait in CtxCmd is not cancellable"
}

// ReadHeader parks on the pipe.
func ReadHeader(r io.Reader) error {
	var hdr [4]byte
	_, err := io.ReadFull(r, hdr[:]) // want "io.ReadFull pipe read in ReadHeader is not cancellable"
	return err
}

// DeadCode never reaches its blocking op: reachability keeps it quiet.
func DeadCode(ch chan int) {
	return
	ch <- 1 // unreachable: no finding
}
