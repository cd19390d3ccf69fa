package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pxml/internal/bayes"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// widthBombEngine wraps an adversarial diamond DAG whose compiled BN
// would need ~2·(2^12+1)^6 CPT cells — far beyond any machine.
func widthBombEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	pi, err := gen.WidthBomb(gen.BombConfig{Width: 12, Parents: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(pi, opts...)
}

// heapAllocNow reports the live heap after a GC, so growth comparisons
// measure retained allocations rather than garbage.
func heapAllocNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAdmissionRefusesWidthBomb: with a budget configured, the upfront
// estimator refuses the bomb as intractable before allocating anything —
// the peak heap stays bounded by the instance itself, not its 10^22-cell
// predicted inference cost.
func TestAdmissionRefusesWidthBomb(t *testing.T) {
	eng := widthBombEngine(t, WithBudget(govern.Budget{MaxSteps: 1 << 20, MaxBytes: 64 << 20}))
	before := heapAllocNow()
	start := time.Now()
	_, err := eng.Run(context.Background(), "PROB OBJECT leaf0")
	if !errors.Is(err, govern.ErrIntractable) {
		t.Fatalf("err = %v, want ErrIntractable", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusal took %v, want sub-second (admission must not build anything)", d)
	}
	if after := heapAllocNow(); after > before+(64<<20) {
		t.Fatalf("heap grew %d bytes evaluating a refused query", after-before)
	}
}

// TestHardCapRefusesWidthBombUngoverned: even with no budget configured,
// the factor-size hard cap stops the bomb inside the compile with a typed
// error instead of attempting the allocation.
func TestHardCapRefusesWidthBombUngoverned(t *testing.T) {
	eng := widthBombEngine(t)
	before := heapAllocNow()
	_, err := eng.Run(context.Background(), "PROB OBJECT leaf0")
	if !errors.Is(err, govern.ErrIntractable) {
		t.Fatalf("err = %v, want ErrIntractable from the factor cap", err)
	}
	if after := heapAllocNow(); after > before+(64<<20) {
		t.Fatalf("heap grew %d bytes on the hard-cap path", after-before)
	}
	// The compile error is cached: the second attempt fails identically
	// without recompiling.
	if _, err2 := eng.Run(context.Background(), "PROB OBJECT leaf0"); !errors.Is(err2, govern.ErrIntractable) {
		t.Fatalf("second attempt: err = %v, want cached ErrIntractable", err2)
	}
}

// TestEstimateCancelsPromptly: a huge Monte-Carlo estimate must unwind
// within 100ms of its context being cancelled — the sharded sample loop
// polls the governor every sample.
func TestEstimateCancelsPromptly(t *testing.T) {
	eng := New(treeBib(t))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, "ESTIMATE 50000000 EXISTS R.book.author")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if d := time.Since(cancelled); d > 100*time.Millisecond {
			t.Fatalf("cancellation took %v, want < 100ms", d)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("estimate never observed cancellation")
	}
}

// TestEstimateAdmissionOverStepBudget: a sample count whose predicted
// cost exceeds the step budget is refused upfront as budget_exceeded
// (retryable — fewer samples would fit), not intractable.
func TestEstimateAdmissionOverStepBudget(t *testing.T) {
	eng := New(treeBib(t), WithBudget(govern.Budget{MaxSteps: 1000}))
	_, err := eng.Run(context.Background(), "ESTIMATE 1000000 EXISTS R.book.author")
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if errors.Is(err, govern.ErrIntractable) {
		t.Fatal("sample-count overrun must not be classified intractable")
	}
	// A small estimate under the same budget still works.
	if _, err := eng.Run(context.Background(), "ESTIMATE 20 EXISTS R.book.author"); err != nil {
		t.Fatalf("small estimate under budget failed: %v", err)
	}
}

// TestStepBudgetTripsAtRuntime: work that passes admission but runs past
// the step budget stops with ErrBudgetExceeded mid-evaluation.
func TestStepBudgetTripsAtRuntime(t *testing.T) {
	eng := New(treeBib(t), WithBudget(govern.Budget{MaxSteps: 5}))
	_, err := eng.Run(context.Background(), "WORLDS")
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestRunBatchStopsDrainingOnCancel is the regression test for the
// blocked-then-cancelled batch: with one worker occupied by a slow
// statement, cancelling the batch context must fail the queued
// statements promptly instead of evaluating them as the worker frees up.
func TestRunBatchStopsDrainingOnCancel(t *testing.T) {
	eng := New(treeBib(t), WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every statement is slow, so none can sneak to completion in the
	// window before cancel: whichever one holds the worker is unwound by
	// the governor poll, and the queued rest must fail at (or right
	// after) acquiring the freed slot instead of evaluating.
	slow := "ESTIMATE 50000000 EXISTS R.book.author"
	stmts := []string{slow, slow, slow, slow}
	type batchOut struct {
		res     []BatchResult
		elapsed time.Duration
	}
	done := make(chan batchOut, 1)
	go func() {
		start := time.Now()
		res := eng.RunBatch(ctx, stmts)
		done <- batchOut{res, time.Since(start)}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case out := <-done:
		for i, br := range out.res {
			if !errors.Is(br.Err, context.Canceled) {
				t.Errorf("statement %d: err = %v, want context.Canceled", i, br.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch kept draining its queue")
	}
}

// panicInstance builds a DAG whose BN compile panics (a root OPF with
// only zero-probability entries yields a zero-cardinality variable). The
// shared leaf makes it a DAG so point queries take the BN route. It is
// deliberately invalid input used to prove containment.
func panicInstance() *core.ProbInstance {
	pi := core.NewProbInstance("R")
	pi.SetLCh("R", "a", "X", "Y")
	w := prob.NewOPF()
	w.Put(sets.NewSet("X", "Y"), 0)
	pi.SetOPF("R", w)
	for _, o := range []model.ObjectID{"X", "Y"} {
		pi.SetLCh(o, "c", "Z")
		keep := prob.NewOPF()
		keep.Put(sets.NewSet("Z"), 1)
		pi.SetOPF(o, keep)
	}
	return pi
}

// TestQueryPanicIsolated: a panicking evaluation surfaces as
// ErrQueryPanic on that query alone; the engine keeps serving.
func TestQueryPanicIsolated(t *testing.T) {
	eng := New(panicInstance())
	_, err := eng.Run(context.Background(), "PROB OBJECT X")
	if !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("err = %v, want ErrQueryPanic", err)
	}
	// The engine is still alive: statements off the BN route succeed.
	if _, err := eng.Run(context.Background(), "STATS"); err != nil {
		t.Fatalf("engine dead after contained panic: %v", err)
	}
	// And the panicking route keeps failing cleanly rather than crashing.
	if _, err := eng.Run(context.Background(), "PROB OBJECT X"); !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("second panic not contained: %v", err)
	}
}

// TestGovernedDeadlineReachesKernels: WithBudget's deadline bounds a
// statement even when the caller passes a background context.
func TestGovernedDeadlineReachesKernels(t *testing.T) {
	eng := New(treeBib(t), WithBudget(govern.Budget{Deadline: 30 * time.Millisecond}))
	start := time.Now()
	_, err := eng.Run(context.Background(), "ESTIMATE 50000000 EXISTS R.book.author")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("deadline enforcement took %v", d)
	}
}

// TestBudgetDeadlineArmsNoTimer: the governor owns WithBudget's deadline.
// The statement stops with context.DeadlineExceeded, and neither the
// engine nor the governor asks the caller's context for its Done channel,
// which a lazy request deadline would arm a timer for.
func TestBudgetDeadlineArmsNoTimer(t *testing.T) {
	eng := New(treeBib(t), WithBudget(govern.Budget{Deadline: 20 * time.Millisecond}))
	ctx := &noDoneCtx{Context: context.Background(), t: t}
	start := time.Now()
	_, err := eng.Run(ctx, "ESTIMATE 50000000 EXISTS R.book.author")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("deadline enforcement took %v", d)
	}
	if _, err := eng.Run(ctx, "PROB R.book.author = A1"); err != nil {
		t.Fatalf("a quick statement under the same budget: %v", err)
	}
}

// noDoneCtx fails the test when its Done channel is asked for.
type noDoneCtx struct {
	context.Context
	t *testing.T
}

func (c *noDoneCtx) Done() <-chan struct{} {
	c.t.Error("the context was asked for its Done channel")
	return c.Context.Done()
}

// TestCostObserver: the estimated-vs-actual hook fires with the
// admission estimate and the steps actually charged.
func TestCostObserver(t *testing.T) {
	type obs struct {
		shape    string
		est, act int64
	}
	var got []obs
	eng := New(treeBib(t),
		WithBudget(govern.Budget{MaxSteps: 1 << 30}),
		WithCostObserver(func(shape string, estimated, actual int64) {
			got = append(got, obs{shape, estimated, actual})
		}))
	if _, err := eng.Run(context.Background(), "ESTIMATE 100 EXISTS R.book.author"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(got))
	}
	if got[0].est <= 0 || got[0].act <= 0 {
		t.Fatalf("estimated/actual = %d/%d, want both positive", got[0].est, got[0].act)
	}
}

// TestHardFactorCapConstant: admission and the bayes pre-allocation
// guard must agree on the cap, or "admitted" and "compilable" drift.
func TestHardFactorCapConstant(t *testing.T) {
	if bayes.MaxFactorEntries != 1<<22 {
		t.Fatalf("MaxFactorEntries = %d; update the admission docs if this changes", bayes.MaxFactorEntries)
	}
}
