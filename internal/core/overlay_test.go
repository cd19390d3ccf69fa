package core_test

import (
	"sync"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// mutators is every way to change an instance through its public API, each
// written against the Figure 2 fixture.
var mutators = []struct {
	name string
	do   func(t *testing.T, pi *core.ProbInstance)
}{
	{"SetOPF", func(t *testing.T, pi *core.ProbInstance) {
		w := prob.NewOPF()
		w.Put(sets.NewSet("B1"), 1)
		pi.SetOPF("R", w)
	}},
	{"SetVPF", func(t *testing.T, pi *core.ProbInstance) { pi.SetVPF("T1", prob.PointMass("Lore")) }},
	{"AddObject", func(t *testing.T, pi *core.ProbInstance) { pi.AddObject("island") }},
	{"SetLCh", func(t *testing.T, pi *core.ProbInstance) { pi.SetLCh("R", "book", "B1") }},
	{"SetLCh remove", func(t *testing.T, pi *core.ProbInstance) { pi.SetLCh("B1", "title") }},
	{"SetCard", func(t *testing.T, pi *core.ProbInstance) { pi.SetCard("R", "book", 1, 1) }},
	{"RegisterType", func(t *testing.T, pi *core.ProbInstance) {
		if err := pi.RegisterType(model.NewType("fresh-type", "x")); err != nil {
			t.Fatal(err)
		}
	}},
	{"SetLeafType", func(t *testing.T, pi *core.ProbInstance) {
		if err := pi.SetLeafType("I1", "title-type"); err != nil {
			t.Fatal(err)
		}
	}},
	{"SetDefaultValue", func(t *testing.T, pi *core.ProbInstance) {
		if err := pi.SetDefaultValue("T1", "Lore"); err != nil {
			t.Fatal(err)
		}
	}},
}

// same is core.Equal plus the type registry, which Equal only compares for
// the types some object uses.
func same(a, b *core.ProbInstance) bool {
	return core.Equal(a, b, 0) && len(a.Types()) == len(b.Types())
}

// TestOverlayIsolation: an overlay is observationally a deep copy. Whatever
// is done to one handle, the other stays equal to a Clone taken beforehand —
// in both directions, and for an overlay of an overlay.
func TestOverlayIsolation(t *testing.T) {
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			base := fixtures.Figure2()
			base.IsTree() // memoize, so the overlay inherits graph and verdict
			ref := base.Clone()
			ov := base.Overlay()
			ov2 := ov.Overlay()
			if !same(ov, ref) || !same(ov2, ref) {
				t.Fatal("fresh overlay differs from its base")
			}

			m.do(t, ov)
			if same(ov, ref) {
				t.Error("mutator had no visible effect on the overlay")
			}
			if !same(base, ref) {
				t.Error("mutating the overlay changed its base")
			}
			if !same(ov2, ref) {
				t.Error("mutating the overlay changed an overlay taken from it")
			}
			if err := base.Validate(); err != nil {
				t.Errorf("base no longer valid: %v", err)
			}

			after := ov.Clone()
			untouched := base.Overlay()
			m.do(t, base)
			m.do(t, ov2)
			if !same(ov, after) {
				t.Error("mutating the base or a sibling afterwards changed the overlay")
			}
			if !same(untouched, ref) {
				t.Error("mutating the base changed an overlay that shadows nothing")
			}
			if !same(base, ov) || !same(ov2, ov) {
				t.Error("the same mutation gave different instances on base, overlay and overlay-of-overlay")
			}
		})
	}
}

// TestOverlayReadThrough: the four routines that iterate the local
// interpretation see the base's assignments with the overlay's on top.
func TestOverlayReadThrough(t *testing.T) {
	base := fixtures.Figure2()
	ov := base.Overlay()
	w := prob.NewOPF()
	w.Put(sets.NewSet("B1", "B2"), 1)
	ov.SetOPF("R", w)
	ov.SetVPF("T1", prob.PointMass("VQDB"))

	want := base.Clone()
	want.SetOPF("R", w)
	want.SetVPF("T1", prob.PointMass("VQDB"))

	if got, exp := ov.SortedOPFObjects(), want.SortedOPFObjects(); !sets.Set(got).Equal(sets.Set(exp)) {
		t.Errorf("SortedOPFObjects = %v, want %v", got, exp)
	}
	if got, exp := ov.SortedVPFObjects(), want.SortedVPFObjects(); !sets.Set(got).Equal(sets.Set(exp)) {
		t.Errorf("SortedVPFObjects = %v, want %v", got, exp)
	}
	if !core.Equal(ov.Clone(), want, 0) {
		t.Error("Clone of an overlay lost assignments")
	}
	ren := map[model.ObjectID]model.ObjectID{"B1": "X1", "T1": "Y1"}
	if !core.Equal(ov.Rename(ren), want.Rename(ren), 0) {
		t.Error("Rename of an overlay differs from Rename of the equivalent flat instance")
	}
	// A deep copy really is deep: its OPFs are not the overlay's.
	if ov.Clone().OPF("B1") == ov.OPF("B1") {
		t.Error("Clone shares an OPF with its source")
	}
	if ov.OPF("B1") != base.OPF("B1") {
		t.Error("overlay does not share an unchanged OPF with its base")
	}
}

// TestOverlayTreeVerdict: the memoized verdict travels with the overlay and
// each handle's own mutations flip its own answer only.
func TestOverlayTreeVerdict(t *testing.T) {
	base := core.NewProbInstance("r")
	base.SetLCh("r", "l", "a", "b")
	base.SetLCh("a", "l", "c")
	if !base.IsTree() {
		t.Fatal("tree not recognized")
	}
	ov := base.Overlay()
	if ov.Graph() != base.Graph() {
		t.Error("overlay rebuilt the memoized graph")
	}
	ov.SetLCh("b", "l", "c") // c now has two parents
	if ov.IsTree() {
		t.Error("overlay: DAG recognized as tree after the mutation")
	}
	if !base.IsTree() {
		t.Error("base verdict changed by a mutation of its overlay")
	}
	ov.SetLCh("b", "l") // second parent removed again
	if !ov.IsTree() {
		t.Error("overlay: verdict did not flip back")
	}
	base.SetLCh("b", "l", "c")
	if base.IsTree() || !ov.IsTree() {
		t.Errorf("after mutating the base: base tree=%v overlay tree=%v, want false/true", base.IsTree(), ov.IsTree())
	}
}

// TestOverlayConcurrent: many goroutines may overlay one published instance
// and ask for its graph and tree verdict at once — the first callers race
// the memo and the shared flags (meaningful under -race).
func TestOverlayConcurrent(t *testing.T) {
	base := fixtures.Figure2()
	ref := base.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ov := base.Overlay()
				if ov.IsTree() != base.IsTree() {
					t.Error("overlay and base disagree on the tree verdict")
				}
				ov.SetVPF("T1", prob.PointMass("VQDB"))
				if g%2 == 0 {
					ov.AddObject("island")
				}
				if !core.Equal(ov.Overlay(), ov, 0) {
					t.Error("overlay of overlay differs")
				}
			}
		}(g)
	}
	wg.Wait()
	if !core.Equal(base, ref, 0) {
		t.Error("concurrent overlays changed their base")
	}
}
