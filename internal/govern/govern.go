// Package govern is the per-query resource governor: a cooperative
// budget (wall-clock deadline via context, a step budget counting the
// work units the inference kernels visit, and an approximate allocation
// budget) carried through the evaluation by context, plus the upfront
// width/cost estimator (estimate.go) that refuses provably-over-budget
// queries before they allocate, and the per-key circuit breaker
// (breaker.go) the serving path uses to shed statement shapes that
// repeatedly trip their budgets.
//
// The PXML exact operators (variable elimination over the compiled BN,
// the ε-algorithms, possible-world enumeration) blow up as 2^b on wide
// OPF nodes, so a single adversarial statement can otherwise pin a CPU
// and the heap long after its HTTP request has been abandoned. Kernels
// call Step/Alloc at loop boundaries. Both check the step and byte
// budgets on every call, so an over-budget query unwinds within one loop
// iteration. The governor owns the deadline: it checks the clock and the
// context's cancellation once per quantum (every 64th poll, or once 4 096
// steps have been charged since the last check, whichever comes first),
// so a cancelled or expired query unwinds within one quantum instead of
// running to completion (DESIGN §17).
//
// All Governor methods are nil-safe: library callers that never attach
// a governor pay one nil check and behave exactly as before.
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrBudgetExceeded reports that a query ran past its configured runtime
// cost budget (step or byte). It is retryable in principle: a cheaper
// variant of the query (fewer samples, tighter path) may fit.
var ErrBudgetExceeded = errors.New("govern: query cost budget exceeded")

// ErrIntractable reports that the upfront estimator proved the query
// cannot complete within the configured budgets (or the hard factor-size
// cap) — it was refused before allocating. Retrying the same statement
// cannot succeed.
var ErrIntractable = errors.New("govern: query provably exceeds resource budget")

// Budget is the per-query resource envelope. The zero value imposes no
// limits (cancellation is still propagated by the governor).
type Budget struct {
	// Deadline bounds one query's wall-clock evaluation; 0 = none. New
	// turns it into an absolute time with one clock read, and the
	// governor compares the clock with it once per quantum: no timer is
	// armed and the context is left as it is, so the query stops within
	// one quantum of the deadline with context.DeadlineExceeded.
	Deadline time.Duration
	// MaxSteps bounds the cooperative step budget: the number of work
	// units (objects visited, OPF entries scanned, factor-table cells
	// filled, worlds materialized) one query may touch. 0 = unlimited.
	MaxSteps int64
	// MaxBytes bounds the approximate bytes one query may allocate for
	// inference state (factor tables, enumeration state). 0 = unlimited.
	MaxBytes int64
}

// IsZero reports whether the budget imposes no limits.
func (b Budget) IsZero() bool {
	return b.Deadline == 0 && b.MaxSteps == 0 && b.MaxBytes == 0
}

// The quantum: the governor reads the clock and ctx.Err() on every
// pollQuantum-th poll, and on the first poll after stepQuantum steps have
// been charged since the last such check. A clock read on every poll was
// measured at 19 % of a BN query's CPU.
const (
	pollQuantum = 64
	stepQuantum = 4096
)

// Governor enforces one query's Budget. It is safe for concurrent use
// (batch evaluation fans one query's work over goroutines) and nil-safe:
// every method on a nil *Governor is a no-op that returns nil.
type Governor struct {
	ctx      context.Context
	deadline time.Time // zero: none
	maxSteps int64
	maxBytes int64

	steps    atomic.Int64
	bytes    atomic.Int64
	estimate atomic.Int64 // upfront predicted steps, for observability

	// polls counts polls; due is the step count at which the next check
	// falls whatever the poll count; stopped holds the error the first
	// failed check found, which every later poll returns.
	polls   atomic.Int64
	due     atomic.Int64
	stopped atomic.Pointer[error]
}

// New builds a governor enforcing b against ctx's cancellation and b's
// deadline, which it fixes here with one clock read. It never calls
// ctx.Done(), so a context that arms its timer lazily (the server's
// request deadline) stays unarmed however long the query runs.
func New(ctx context.Context, b Budget) *Governor {
	g := &Governor{
		ctx:      ctx,
		maxSteps: b.MaxSteps,
		maxBytes: b.MaxBytes,
	}
	if b.Deadline > 0 {
		g.deadline = time.Now().Add(b.Deadline)
	}
	g.due.Store(stepQuantum)
	return g
}

type ctxKey struct{}

// With returns a context carrying g; From retrieves it.
func With(ctx context.Context, g *Governor) context.Context {
	return context.WithValue(ctx, ctxKey{}, g)
}

// From returns the governor carried by ctx, or nil.
func From(ctx context.Context) *Governor {
	g, _ := ctx.Value(ctxKey{}).(*Governor)
	return g
}

// Step charges n work units and reports whether the query should stop:
// a non-nil error means the step budget is exhausted, or a check found
// the context cancelled or the deadline passed. Kernels call it at loop
// boundaries with batched charges (one OPF scan, one factor table, one
// sample) so the per-call cost — two atomic adds, and a clock read once
// per quantum — stays far below the work it meters.
func (g *Governor) Step(n int64) error {
	if g == nil {
		return nil
	}
	s := g.steps.Add(n)
	if g.maxSteps > 0 && s > g.maxSteps {
		return fmt.Errorf("%w: %d work units over the %d-unit step budget", ErrBudgetExceeded, s, g.maxSteps)
	}
	return g.poll(s)
}

// Alloc charges n bytes of inference state and reports whether the
// query should stop. Kernels call it BEFORE allocating (the point is to
// refuse the allocation, not to account for it after the heap grew).
func (g *Governor) Alloc(n int64) error {
	if g == nil {
		return nil
	}
	if b := g.bytes.Add(n); g.maxBytes > 0 && b > g.maxBytes {
		return fmt.Errorf("%w: %d bytes over the %d-byte allocation budget", ErrBudgetExceeded, b, g.maxBytes)
	}
	return g.poll(g.steps.Load())
}

// Err checks the budgets without charging anything, and counts as a poll
// towards the next cancellation and deadline check.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	s := g.steps.Load()
	if g.maxSteps > 0 && s > g.maxSteps {
		return fmt.Errorf("%w: %d work units over the %d-unit step budget", ErrBudgetExceeded, s, g.maxSteps)
	}
	return g.poll(s)
}

// poll counts one poll at steps charged steps and, when a quantum is
// complete, checks ctx.Err() and the deadline.
func (g *Governor) poll(steps int64) error {
	if err := g.stopped.Load(); err != nil {
		return *err
	}
	if g.polls.Add(1)%pollQuantum != 0 && steps < g.due.Load() {
		return nil
	}
	g.due.Store(steps + stepQuantum)
	err := g.ctx.Err()
	if err == nil && !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		stop := err // declared here, so only a failed check allocates
		g.stopped.Store(&stop)
	}
	return err
}

// Steps returns the work units charged so far (the query's actual cost).
func (g *Governor) Steps() int64 {
	if g == nil {
		return 0
	}
	return g.steps.Load()
}

// Bytes returns the inference bytes charged so far.
func (g *Governor) Bytes() int64 {
	if g == nil {
		return 0
	}
	return g.bytes.Load()
}

// SetEstimate records the upfront predicted step cost (the admission
// estimator's figure), so observers can compare estimated vs actual.
func (g *Governor) SetEstimate(n int64) {
	if g != nil {
		g.estimate.Store(n)
	}
}

// Estimate returns the recorded predicted step cost (0 when none).
func (g *Governor) Estimate() int64 {
	if g == nil {
		return 0
	}
	return g.estimate.Load()
}
