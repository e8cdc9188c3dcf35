// Package fixture exercises ctxflow's context-plumbing rules in a
// deterministic (root) package.
package fixture

import "context"

// UsesNothing takes a ctx and ignores it.
func UsesNothing(ctx context.Context) int { // want "never uses its context parameter ctx"
	return 1
}

// Blank discards the ctx outright.
func Blank(_ context.Context) int { // want "declares its context parameter as _"
	return 2
}

// Uses reads the ctx; no finding.
func Uses(ctx context.Context) error {
	return ctx.Err()
}

// Captures uses the ctx only through a closure, which still counts —
// cancellation reaches the closure.
func Captures(ctx context.Context) func() error {
	return func() error { return ctx.Err() }
}

// Fresh mints a root context with no sanction.
func Fresh() error {
	ctx := context.Background() // want "mints a fresh root context"
	return ctx.Err()
}

// Todo is the same violation through TODO.
func Todo() error {
	ctx := context.TODO() // want "mints a fresh root context"
	return ctx.Err()
}

// Guard is the sanctioned nil-ctx compatibility pattern; no finding.
func Guard(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

// Run delegates to its own *Ctx variant, which sanctions the Background;
// the Deprecated mark plays no part.
//
// Deprecated: use RunCtx.
func Run() error {
	return RunCtx(context.Background())
}

// Legacy carries a Deprecated mark but hands its Background to a
// different function's *Ctx variant; the mark sanctions nothing.
//
// Deprecated: use SweepCtx.
func Legacy() error {
	return SweepCtx(context.Background()) // want "mints a fresh root context"
}

// RunCtx is the cancellable variant.
func RunCtx(ctx context.Context) error {
	return ctx.Err()
}

// Sweep delegates directly to its own *Ctx variant — the compatibility
// boundary — so the Background is sanctioned without a Deprecated mark.
func Sweep() error {
	return SweepCtx(context.Background())
}

// SweepCtx is the cancellable variant.
func SweepCtx(ctx context.Context) error {
	return ctx.Err()
}
