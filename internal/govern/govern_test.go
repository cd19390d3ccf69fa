package govern

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"pxml/internal/core"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

func TestNilGovernorIsNoop(t *testing.T) {
	var g *Governor
	if err := g.Step(1 << 40); err != nil {
		t.Fatalf("nil Step: %v", err)
	}
	if err := g.Alloc(1 << 40); err != nil {
		t.Fatalf("nil Alloc: %v", err)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("nil Err: %v", err)
	}
	if g.Steps() != 0 || g.Bytes() != 0 || g.Estimate() != 0 {
		t.Fatal("nil counters nonzero")
	}
	g.SetEstimate(7) // must not panic
}

func TestStepBudget(t *testing.T) {
	g := New(context.Background(), Budget{MaxSteps: 100})
	if err := g.Step(100); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := g.Step(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if err := g.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Err after exhaustion: %v", err)
	}
}

func TestAllocBudget(t *testing.T) {
	g := New(context.Background(), Budget{MaxBytes: 1 << 20})
	if err := g.Alloc(1 << 20); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := g.Alloc(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestCancellationPropagates: cancellation is seen within one quantum —
// by the 64th Step(1), or at once by a Step(4096) — and from then on by
// every poll.
func TestCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Budget{})
	if err := g.Step(1); err != nil {
		t.Fatalf("before cancel: %v", err)
	}
	cancel()
	calls := 0
	for err := error(nil); err == nil; {
		if calls++; calls > pollQuantum {
			t.Fatalf("no error after %d Step(1) calls", pollQuantum)
		}
		if err = g.Step(1); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("after cancel: %v", err)
		}
	}
	if err := g.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancel: %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	g = New(ctx, Budget{})
	if err := g.Step(1); err != nil {
		t.Fatalf("before cancel: %v", err)
	}
	cancel()
	if err := g.Step(stepQuantum); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step(%d) after cancel: %v", stepQuantum, err)
	}
}

// TestDeadlineWithinQuantum: Budget.Deadline stops the governor with
// context.DeadlineExceeded within one quantum, and New never asks the
// context for its Done channel.
func TestDeadlineWithinQuantum(t *testing.T) {
	ctx := &noDoneCtx{Context: context.Background(), t: t}
	g := New(ctx, Budget{Deadline: time.Millisecond})
	if err := g.Step(stepQuantum); err != nil {
		t.Fatalf("before the deadline: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	calls := 0
	for err := error(nil); err == nil; {
		if calls++; calls > pollQuantum {
			t.Fatalf("no error %d polls after the deadline", pollQuantum)
		}
		if err = g.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("after the deadline: %v", err)
		}
	}
	if err := g.Step(1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Step after the deadline: %v", err)
	}
}

// noDoneCtx fails the test when its Done channel is asked for.
type noDoneCtx struct {
	context.Context
	t *testing.T
}

func (c *noDoneCtx) Done() <-chan struct{} {
	c.t.Error("the governor asked the context for its Done channel")
	return c.Context.Done()
}

func TestContextRoundTrip(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("empty context carries a governor")
	}
	g := New(context.Background(), Budget{MaxSteps: 5})
	ctx := With(context.Background(), g)
	if From(ctx) != g {
		t.Fatal("From did not return the attached governor")
	}
}

func TestBudgetIsZero(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Fatal("zero budget not IsZero")
	}
	for _, b := range []Budget{{Deadline: time.Second}, {MaxSteps: 1}, {MaxBytes: 1}} {
		if b.IsZero() {
			t.Fatalf("%+v reported IsZero", b)
		}
	}
}

func TestClampSteps(t *testing.T) {
	if ClampSteps(1e30) != math.MaxInt64/2 {
		t.Fatal("huge not clamped")
	}
	if ClampSteps(-1) != 0 {
		t.Fatal("negative not clamped")
	}
	if ClampSteps(42) != 42 {
		t.Fatal("small distorted")
	}
}

// widthBombProfile builds a diamond DAG by hand: root → p parents, each
// parent's OPF over all subsets of the same w shared leaves. The leaf
// CPT conditions on every parent, so predicted cells ≈ 2·(2^w+1)^p.
func widthBomb(t *testing.T, parents, width int) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance("root")
	var ps []string
	for i := 0; i < parents; i++ {
		ps = append(ps, "p"+string(rune('a'+i)))
	}
	var ls []string
	for j := 0; j < width; j++ {
		ls = append(ls, "l"+string(rune('a'+j)))
	}
	pi.SetLCh("root", "p", ps...)
	rootOPF := prob.NewOPF()
	rootOPF.Put(sets.NewSet(ps...), 1)
	pi.SetOPF("root", rootOPF)
	for _, p := range ps {
		pi.SetLCh(p, "l", ls...)
		opf := prob.NewOPF()
		n := 1 << width
		for m := 0; m < n; m++ {
			var sub []string
			for j := 0; j < width; j++ {
				if m&(1<<j) != 0 {
					sub = append(sub, ls[j])
				}
			}
			opf.Put(sets.NewSet(sub...), 1/float64(n))
		}
		pi.SetOPF(p, opf)
	}
	return pi
}

func TestMeasureWidthBomb(t *testing.T) {
	pi := widthBomb(t, 4, 8)
	p := Measure(pi)
	if p.Tree {
		t.Fatal("diamond DAG measured as tree")
	}
	if p.Objects != 1+4+8 {
		t.Fatalf("objects = %d, want 13", p.Objects)
	}
	if p.MaxOPFEntries != 256 {
		t.Fatalf("max OPF entries = %d, want 256", p.MaxOPFEntries)
	}
	if p.MaxFanout != 8 {
		t.Fatalf("max fanout = %d, want 8", p.MaxFanout)
	}
	// Leaf CPT: 2 states × (256 positive + 1 absent)^4 parents.
	want := 2 * math.Pow(257, 4)
	if p.MaxCPTCells != want {
		t.Fatalf("max CPT cells = %g, want %g", p.MaxCPTCells, want)
	}
	if p.TotalCPTCells <= p.MaxCPTCells {
		t.Fatalf("total %g not above max %g", p.TotalCPTCells, p.MaxCPTCells)
	}
}

func TestMeasureOverflowSafe(t *testing.T) {
	// 10 parents × width 14: (2^14+1)^10 ≈ 1.4e42 overflows int64 by 20+
	// orders of magnitude; the float64 profile must stay finite, positive,
	// and enormous.
	pi := widthBomb(t, 10, 14)
	p := Measure(pi)
	if math.IsInf(p.MaxCPTCells, 0) || math.IsNaN(p.MaxCPTCells) {
		t.Fatalf("cells not finite: %g", p.MaxCPTCells)
	}
	if p.MaxCPTCells < 1e40 {
		t.Fatalf("cells = %g, expected ≥ 1e40", p.MaxCPTCells)
	}
	if ClampSteps(p.MaxCPTCells) != math.MaxInt64/2 {
		t.Fatal("clamp should saturate")
	}
}

func TestMeasureTree(t *testing.T) {
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "a", "x", "y")
	opf := prob.NewOPF()
	opf.Put(sets.NewSet("x"), 0.5)
	opf.Put(sets.NewSet("x", "y"), 0.5)
	pi.SetOPF("r", opf)
	p := Measure(pi)
	if !p.Tree {
		t.Fatal("tree not detected")
	}
	if p.WorldsFloor != 2 {
		t.Fatalf("worlds floor = %g, want 2", p.WorldsFloor)
	}
	// r: 2 states, no parents → 2 cells; x,y: (1 present + 1 absent)
	// states × r's 2 states = 4 cells each.
	if p.MaxCPTCells != 4 {
		t.Fatalf("max CPT cells = %g, want 4 — profile %+v", p.MaxCPTCells, p)
	}
	if p.TotalCPTCells != 10 {
		t.Fatalf("total CPT cells = %g, want 10", p.TotalCPTCells)
	}
}
