// Package fixture exercises errflow: discarded errors, identity
// comparisons, and %v-wrapped chains.
package fixture

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrStale is a sentinel for the comparison cases.
var ErrStale = errors.New("stale")

func work() error                       { return nil }
func count() (int, error)               { return 0, nil }
func closeIt() error                    { return nil }
func pushCtx(ctx context.Context) error { return ctx.Err() }

// BareDiscard drops the only result.
func BareDiscard() {
	work() // want "call to .*work discards its error result"
}

// DeferDiscard drops it at function exit.
func DeferDiscard() {
	defer closeIt() // want "deferred call to .*closeIt discards its error result"
}

// BlankDiscard launders the drop through a blank assignment.
func BlankDiscard() {
	_ = work() // want "blank assignment discards the error result of .*work"
}

// TupleDiscard keeps the value and drops the error.
func TupleDiscard() int {
	n, _ := count() // want "blank assignment discards the error result of .*count"
	return n
}

// GoBody drops the error inside a goroutine's body.
func GoBody() {
	go func() {
		work() // want "call to .*work discards its error result"
	}()
}

// GoSpawn hands the call itself to `go`: the spawned call is no
// statement of its own, so no finding.
func GoSpawn() {
	go work()
}

// Handled checks the error; no finding.
func Handled() error {
	if err := work(); err != nil {
		return err
	}
	return nil
}

// PrintExempt uses the fmt print family; exempt by convention.
func PrintExempt(sb *strings.Builder) {
	fmt.Fprintf(sb, "progress %d%%", 10)
	sb.WriteString("done")
}

// ShimExempt is the deprecated-shim discard: ctx-free wrapper, errors
// travel in-band; exempt by convention.
func ShimExempt() {
	_ = pushCtx(context.Background())
}

// IdentityEq compares error identity.
func IdentityEq(err error) bool {
	return err == io.EOF // want "error compared with =="
}

// IdentityNeq is the negated form.
func IdentityNeq(err error) bool {
	return err != ErrStale // want "error compared with !="
}

// NilCheck is the error protocol itself; no finding.
func NilCheck(err error) bool {
	return err != nil
}

// IsGood matches through the chain; no finding.
func IsGood(err error) bool {
	return errors.Is(err, ErrStale)
}

// WrapV embeds an error unwrappably.
func WrapV(err error) error {
	return fmt.Errorf("load: %v", err) // want "embeds an error with %v"
}

// WrapS is the same mistake with %s.
func WrapS(err error) error {
	return fmt.Errorf("load: %s", err) // want "embeds an error with %s"
}

// WrapGood keeps the chain; no finding.
func WrapGood(err error) error {
	return fmt.Errorf("load day %d: %w", 3, err)
}
