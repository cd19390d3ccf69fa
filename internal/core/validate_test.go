package core_test

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// decode reads a text-codec document; its local functions come out sealed.
func decode(t *testing.T, doc string) *core.ProbInstance {
	t.Helper()
	pi, err := codec.DecodeText(strings.NewReader("pxml/1\n" + doc))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, doc)
	}
	return pi
}

// TestValidateLiteRejections: every way an instance can be invalid is
// still caught by the single validation pass, with the message it has
// always had.
func TestValidateLiteRejections(t *testing.T) {
	typedNonLeaf := func(t *testing.T) *core.ProbInstance {
		pi := decode(t, "root r\ntype t a\nlch r l 0 1 x\nopf r 1\n")
		if err := pi.SetLeafType("r", "t"); err != nil {
			t.Fatal(err)
		}
		return pi
	}
	for _, tc := range []struct {
		name string
		doc  string
		make func(*testing.T) *core.ProbInstance
		want string // the whole message, or its start when it ends in "…"
	}{
		{name: "non-child member",
			doc:  "root r\nlch r l 0 2 x y\nobj z\nopf r 1 x z\n",
			want: "core: OPF(r) supports {x, z} containing non-child z"},
		{name: "label count outside card, several labels",
			doc:  "root r\nlch r a 1 1 x\nlch r b 0 1 y\nopf r 0.5 x\nopf r 0.5 y\n",
			want: "core: OPF(r) set {y} has 0 a-children outside card [1,1]"},
		{name: "label count above card",
			doc:  "root r\nlch r a 0 1 x y\nlch r b 0 1 z\nopf r 1 x y z\n",
			want: "core: OPF(r) set {x, y, z} has 2 a-children outside card [0,1]"},
		{name: "cycle",
			doc:  "root r\nlch r l 0 1 x\nlch x l 0 1 y\nlch y l 0 1 x\nopf r 1\nopf x 1\nopf y 1\n",
			want: "core: weak instance not acyclic: graph: cycle detected through vertex …"},
		{name: "OPF mass",
			doc:  "root r\nlch r l 0 1 x\nopf r 0.5 x\n",
			want: "core: OPF(r): prob: OPF mass 0.5 != 1"},
		{name: "OPF probability out of range",
			doc:  "root r\nlch r l 0 1 x\nopf r 1.5 x\nopf r -0.5\n",
			want: "core: OPF(r): prob: OPF entry {} has probability -0.5 outside [0,1]"},
		{name: "VPF mass",
			doc:  "root r\ntype t a b\nleaf r t\nvpf r 0.25 a\nvpf r 0.25 b\n",
			want: "core: VPF(r): prob: VPF mass 0.5 != 1"},
		{name: "value outside the domain",
			doc:  "root r\ntype t a b\nlch r l 1 1 x\nopf r 1 x\nleaf x t\nvpf x 1 c\n",
			want: `core: VPF(x) supports value "c" outside dom(t)`},
		{name: "typed non-leaf", make: typedNonLeaf,
			want: `core: non-leaf object r carries leaf type "t"`},
		{name: "OPF on a leaf",
			doc:  "root r\nlch r l 1 1 x\nopf r 1 x\nopf x 1\n",
			want: "core: leaf x has an OPF"},
		{name: "VPF on a non-leaf",
			doc:  "root r\ntype t a\nlch r l 1 1 x\nopf r 1 x\nvpf r 1 a\nleaf x t\nvpf x 1 a\n",
			want: "core: non-leaf r has a VPF"},
		{name: "untyped leaf with a VPF",
			doc:  "root r\nlch r l 1 1 x\nopf r 1 x\nvpf x 1 a\n",
			want: "core: untyped leaf x has a VPF"},
		{name: "typed leaf without a VPF",
			doc:  "root r\ntype t a\nleaf r t\n",
			want: "core: typed leaf r has no VPF"},
		{name: "missing OPF",
			doc:  "root r\nlch r l 0 1 x\n",
			want: "core: non-leaf r has no OPF"},
		{name: "OPF outside V",
			doc:  "root r\nopf ghost 1\nopf another 1\n",
			want: "core: OPF assigned to another, which is not an object of the instance"},
		{name: "VPF outside V",
			doc:  "root r\nvpf ghost 1 a\n",
			want: "core: VPF assigned to ghost, which is not an object of the instance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pi *core.ProbInstance
			if tc.make != nil {
				pi = tc.make(t)
			} else {
				pi = decode(t, tc.doc)
			}
			if pi.Validate() == nil {
				t.Error("Validate accepted")
			}
			for _, validate := range []func() error{pi.ValidateLite, pi.Overlay().ValidateLite} {
				err := validate()
				if err == nil {
					t.Fatal("ValidateLite accepted")
				}
				got := err.Error()
				if prefix, open := strings.CutSuffix(tc.want, "…"); open {
					got = got[:min(len(got), len(prefix))] + "…"
				}
				if got != tc.want {
					t.Errorf("message %q, want %q", err, tc.want)
				}
			}
		})
	}
}

// TestValidateLiteAcceptsNilFunctions: a nil assignment is no function at
// all — not one outside V, and not an OPF on a leaf or a VPF on a non-leaf
// (TestValidateLiteRejections has those).
func TestValidateLiteAcceptsNilFunctions(t *testing.T) {
	pi := decode(t, "root r\ntype t a\nlch r l 1 1 x\nopf r 1 x\nleaf x t\nvpf x 1 a\n")
	pi.SetOPF("nobody", nil)
	pi.SetVPF("nobody", nil)
	pi.SetOPF("x", nil)
	pi.SetVPF("r", nil)
	if err := pi.ValidateLite(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoInvalidation: what an instance has memoized about its structure
// (Validate's verdict, acyclicity, the tree verdict, reachability) is
// dropped by every mutator that can change it. Each case starts from a
// decoded tree whose memos are all warm.
func TestMemoInvalidation(t *testing.T) {
	const tree = "root r\ntype t a\nlch r l 0 1 x\nlch x l 0 1 y\nopf r 1 x\nopf x 1 y\nleaf y t\nvpf y 1 a\n"
	warm := func(t *testing.T) *core.ProbInstance {
		pi := decode(t, tree)
		if err := pi.ValidateLite(); err != nil {
			t.Fatal(err)
		}
		if !pi.IsTree() || !pi.AllReachable() || pi.CheckAcyclic() != nil {
			t.Fatal("the fixture is a tree")
		}
		return pi
	}
	one := func(ids ...string) *prob.OPF {
		return prob.OPFFromSorted([]prob.OPFEntry{{Set: sets.NewSet(ids...), Prob: 1}})
	}
	t.Run("back edge", func(t *testing.T) {
		pi := warm(t)
		pi.SetLCh("x", "back", "x2")
		pi.SetLCh("x2", "l", "x")
		pi.SetOPF("x2", one())
		if err := pi.CheckAcyclic(); err == nil || pi.IsTree() {
			t.Fatalf("x -> x2 -> x: CheckAcyclic %v, IsTree %v", err, pi.IsTree())
		}
		if err := pi.ValidateLite(); err == nil || !strings.Contains(err.Error(), "not acyclic") {
			t.Fatalf("ValidateLite = %v", err)
		}
	})
	t.Run("second parent", func(t *testing.T) {
		pi := warm(t)
		pi.SetLCh("r", "m", "y")
		if pi.IsTree() || pi.CheckAcyclic() != nil || !pi.AllReachable() {
			t.Fatal("r -> y beside x -> y is an acyclic, fully reachable non-tree")
		}
		if err := pi.ValidateLite(); err != nil {
			t.Fatalf("ValidateLite = %v", err)
		}
	})
	t.Run("unreachable object", func(t *testing.T) {
		pi := warm(t)
		pi.AddObject("island")
		if pi.IsTree() || pi.AllReachable() {
			t.Fatal("an isolated object is unreachable")
		}
	})
	t.Run("card cuts an edge", func(t *testing.T) {
		pi := warm(t)
		pi.SetCard("x", "l", 0, 0)
		if pi.IsTree() || pi.AllReachable() {
			t.Fatal("card [0,0] removes x -> y from the graph")
		}
	})
	t.Run("typed non-leaf", func(t *testing.T) {
		pi := warm(t)
		if err := pi.SetLeafType("x", "t"); err != nil {
			t.Fatal(err)
		}
		if err := pi.ValidateLite(); err == nil || !strings.Contains(err.Error(), "carries leaf type") {
			t.Fatalf("ValidateLite = %v", err)
		}
	})
	t.Run("root as a child, after a loader's pass", func(t *testing.T) {
		// Loader.Instance memoizes a pass; a later mutation must not hide
		// behind it.
		ld := core.NewLoader("r", 2)
		r, x := ld.Number("r"), ld.Number("x")
		ld.Declare(x)
		ld.SetEdges(r, "l", []int32{x}, 0, 1)
		ld.SetOPF(r, one("x"))
		pi, err := ld.Instance()
		if err != nil {
			t.Fatal(err)
		}
		if err := pi.ValidateLite(); err != nil {
			t.Fatal(err)
		}
		pi.SetLCh("x", "l", "r")
		if err := pi.ValidateLite(); err == nil || !strings.Contains(err.Error(), "root r appears in lch") {
			t.Fatalf("ValidateLite = %v", err)
		}
	})
	t.Run("new type and default value", func(t *testing.T) {
		pi := warm(t)
		if err := pi.RegisterType(model.NewType("u", "b")); err != nil {
			t.Fatal(err)
		}
		if err := pi.SetDefaultValue("y", "a"); err != nil {
			t.Fatal(err)
		}
		if err := pi.ValidateLite(); err != nil {
			t.Fatalf("ValidateLite = %v", err)
		}
	})
	t.Run("overlay inherits, then diverges", func(t *testing.T) {
		pi := warm(t)
		ov := pi.Overlay()
		ov.SetLCh("r", "m", "y")
		if ov.IsTree() || !pi.IsTree() {
			t.Fatalf("overlay IsTree %v, source IsTree %v", ov.IsTree(), pi.IsTree())
		}
	})
}

// TestLoaderSetEdges: one SetEdges serves every bulk loader, the text
// decoder's repeated and child-less lch records included.
func TestLoaderSetEdges(t *testing.T) {
	ld := core.NewLoader("r", 4)
	r := ld.Number("r")
	// Numbered out of id order; SetEdges sorts what it is given.
	z, y, x := ld.Number("z"), ld.Number("y"), ld.Number("x")
	for _, o := range []int32{x, y, z} {
		ld.Declare(o)
	}
	// A stored interval does not outlive the set it was given with.
	ld.SetEdges(r, "l", []int32{x, y}, 1, 1)
	ld.SetEdges(r, "l", []int32{z, x, y, x}, 0, 3)
	// An empty set removes the pair and still records a non-default interval.
	ld.SetEdges(r, "gone", []int32{x}, 0, 1)
	ld.SetEdges(r, "gone", nil, 2, 5)
	ld.SetEdges(x, "only", []int32{y}, 0, 1)
	ld.SetEdges(x, "only", nil, 0, 0)
	ld.SetOPF(r, prob.OPFFromSorted([]prob.OPFEntry{{Set: sets.NewSet("x", "y", "z"), Prob: 1}}))
	pi, err := ld.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if got := pi.Card("r", "l"); got != (sets.Interval{Min: 0, Max: 3}) {
		t.Errorf("card(r,l) = %v, want the default [0,3]", got)
	}
	if got := pi.LCh("r", "l"); !got.Equal(sets.NewSet("x", "y", "z")) {
		t.Errorf("lch(r,l) = %v", got)
	}
	if got := pi.Labels("r"); len(got) != 1 || got[0] != "l" {
		t.Errorf("labels(r) = %v", got)
	}
	if got := pi.Card("r", "gone"); got != (sets.Interval{Min: 2, Max: 5}) {
		t.Errorf("card(r,gone) = %v, want the recorded [2,5]", got)
	}
	if !pi.IsLeaf("x") || len(pi.Labels("x")) != 0 {
		t.Errorf("x kept an edge: labels %v", pi.Labels("x"))
	}
	if err := pi.ValidateLite(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMakesNoMapPerParent: the lch records of a 341-object tree (85
// parents) cost the text decoder a handful of allocations — label strings,
// the chunks child sets and edge groups are cut from — and nothing per
// parent: 15 measured. With lch and card as maps of maps they cost 174, two
// small maps per parent.
func TestDecodeMakesNoMapPerParent(t *testing.T) {
	in, err := gen.Generate(gen.Config{Depth: 4, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := codec.EncodeText(&doc, in.PI); err != nil {
		t.Fatal(err)
	}
	// Without its lch records the document still decodes (the decoder
	// checks structure only) and interns the same ids.
	noLch := regexp.MustCompile(`(?m)^lch .*\n`).ReplaceAll(doc.Bytes(), nil)
	if _, err := codec.DecodeTextBytes(noLch); err != nil {
		t.Fatal(err)
	}
	with := testing.AllocsPerRun(10, func() { _, _ = codec.DecodeTextBytes(doc.Bytes()) })
	without := testing.AllocsPerRun(10, func() { _, _ = codec.DecodeTextBytes(noLch) })
	if lch := with - without; lch > 15 {
		t.Errorf("lch records of %d objects cost %v allocations, want at most 15", in.PI.NumObjects(), lch)
	}
}

// TestLoaderAddLeavesIDsToFirstLookup: a loader that only Adds keeps no id
// table; the instance builds it once on the first lookup by id, which
// concurrent readers may all make at once (run under -race).
func TestLoaderAddLeavesIDsToFirstLookup(t *testing.T) {
	ld := core.NewLoader("r", 4)
	x, y := ld.Add("x"), ld.Add("y")
	ld.Declare(x)
	ld.Declare(y)
	ld.SetEdges(0, "l", []int32{y, x}, 1, 2)
	ld.SetOPF(0, prob.OPFFromSorted([]prob.OPFEntry{{Set: sets.NewSet("x"), Prob: 0.5}, {Set: sets.NewSet("y"), Prob: 0.5}}))
	pi, err := ld.Instance()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !pi.HasObject("y") || pi.OPF("r") == nil || !pi.LCh("r", "l").Equal(sets.NewSet("x", "y")) || pi.HasObject("z") {
				t.Error("lookups by id disagree with the load")
			}
		}()
	}
	wg.Wait()
	if err := pi.ValidateLite(); err != nil {
		t.Fatal(err)
	}
	pi.AddObject("z")
	if !pi.HasObject("z") || pi.NumObjects() != 4 {
		t.Errorf("AddObject after a lazy table: %v", pi.Objects())
	}
}
