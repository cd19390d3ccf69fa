package pathexpr

import (
	"reflect"
	"slices"
	"testing"

	"pxml/internal/fixtures"
	"pxml/internal/graph"
	"pxml/internal/model"
)

func TestParse(t *testing.T) {
	p, err := Parse("R.book.author")
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != "R" || !reflect.DeepEqual(p.Labels, []string{"book", "author"}) {
		t.Errorf("parsed = %+v", p)
	}
	if p.String() != "R.book.author" || p.Len() != 2 {
		t.Errorf("String/Len = %q/%d", p.String(), p.Len())
	}
	bare, err := Parse("R")
	if err != nil || bare.Len() != 0 || bare.String() != "R" {
		t.Errorf("bare = %+v err=%v", bare, err)
	}
	for _, bad := range []string{"", "R..author", ".book", "R."} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("")
}

// TestTargetsFigure1 reproduces the paper's example: A2 ∈ R.book.author in
// the Figure 1 instance.
func TestTargetsFigure1(t *testing.T) {
	g := fixtures.Figure1().Graph()
	p := MustParse("R.book.author")
	if got, want := p.Targets(g), []string{"A1", "A2", "A3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Targets = %v, want %v", got, want)
	}
	if !p.Matches(g, "A2") || p.Matches(g, "T1") {
		t.Error("Matches misbehaves")
	}
	if got := MustParse("R.book.title").Targets(g); !reflect.DeepEqual(got, []string{"T1", "T2"}) {
		t.Errorf("title targets = %v", got)
	}
	if got := MustParse("R").Targets(g); !reflect.DeepEqual(got, []string{"R"}) {
		t.Errorf("bare root targets = %v", got)
	}
	if got := MustParse("R.missing").Targets(g); len(got) != 0 {
		t.Errorf("missing label targets = %v", got)
	}
	if got := MustParse("X.book").Targets(g); len(got) != 0 {
		t.Errorf("unknown root targets = %v", got)
	}
}

func TestWildcard(t *testing.T) {
	g := fixtures.Figure1().Graph()
	got := MustParse("R.*.author").Targets(g)
	if !reflect.DeepEqual(got, []string{"A1", "A2", "A3"}) {
		t.Errorf("wildcard targets = %v", got)
	}
	// R.*.* reaches titles and authors.
	got = MustParse("R.*.*").Targets(g)
	if !reflect.DeepEqual(got, []string{"A1", "A2", "A3", "T1", "T2"}) {
		t.Errorf("R.*.* targets = %v", got)
	}
}

// TestProjectAncestorsFigure4 reproduces Example 5.1 / Figure 4: the
// ancestor projection of the Figure 1 instance on R.book.author keeps
// {R, B1, B2, B3, A1, A2, A3} and drops titles and institutions.
func TestProjectAncestorsFigure4(t *testing.T) {
	s := fixtures.Figure1()
	out := ProjectAncestors(s, MustParse("R.book.author"))
	if err := out.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := []string{"A1", "A2", "A3", "B1", "B2", "B3", "R"}
	if got := out.Objects(); !reflect.DeepEqual(got, want) {
		t.Errorf("objects = %v, want %v", got, want)
	}
	// Authors become untyped leaves (their institutions are projected away).
	if !out.IsLeaf("A1") {
		t.Error("A1 should be a leaf after projection")
	}
	if _, ok := out.TypeOf("A1"); ok {
		t.Error("A1 should be untyped after projection")
	}
	// Edge labels preserved.
	if l, ok := out.Graph().Label("B1", "A1"); !ok || l != "author" {
		t.Errorf("label(B1,A1) = %q,%v", l, ok)
	}
	if slices.Contains(out.Graph().Children("B1"), "T1") {
		t.Error("title edge survived projection")
	}
}

// TestProjectAncestorsKeepsTypedLeaves: projecting onto a path ending at
// typed leaves keeps their types and values.
func TestProjectAncestorsKeepsTypedLeaves(t *testing.T) {
	s := fixtures.Figure1()
	out := ProjectAncestors(s, MustParse("R.book.title"))
	if v, ok := out.ValueOf("T1"); !ok || v != "VQDB" {
		t.Errorf("val(T1) = %q,%v", v, ok)
	}
	if out.HasObject("A1") {
		t.Error("author survived title projection")
	}
}

func TestProjectAncestorsNoMatch(t *testing.T) {
	s := fixtures.Figure1()
	out := ProjectAncestors(s, MustParse("R.journal"))
	if out.NumObjects() != 1 || !out.HasObject("R") {
		t.Errorf("no-match projection = %v", out.Objects())
	}
	// Wrong root yields bare root of the source instance.
	out = ProjectAncestors(s, MustParse("X.book"))
	if out.NumObjects() != 1 {
		t.Errorf("wrong-root projection = %v", out.Objects())
	}
}

// TestPlanPartialPathPruned: objects on partial paths that never reach a
// full match are dropped — the paper's E′ definition keeps only edges on
// complete match paths.
func TestPlanPartialPathPruned(t *testing.T) {
	s := model.NewInstance("r")
	_ = s.AddEdge("r", "x", "a")
	_ = s.AddEdge("r", "y", "a")
	_ = s.AddEdge("x", "z", "b")
	g := s.Graph()
	// y has no b-child: it must not be kept.
	pl := NewPlan(g, MustParse("r.a.b"), nil)
	if levelIDs(pl, 1)["y"] {
		t.Error("dead-end ancestor kept")
	}
	if !levelIDs(pl, 1)["x"] || !levelIDs(pl, 2)["z"] {
		t.Error("match path lost")
	}
	if got := planKept(pl); !reflect.DeepEqual(got, []string{"r", "x", "z"}) {
		t.Errorf("Kept = %v", got)
	}
	if pl.IsEmpty() {
		t.Error("plan should not be empty")
	}
	if got := pl.Matched(); !reflect.DeepEqual(got, []string{"z"}) {
		t.Errorf("Matched = %v", got)
	}
	// The layout: root at position 0, each kid naming its child's position.
	if pl.Nodes[0].ID != "r" || len(pl.Nodes) != 3 {
		t.Fatalf("Nodes = %v", pl.Nodes)
	}
	// r's children are x and y, so x sits in slot 0 of r's row.
	if kids := pl.KidsOf(0); len(kids) != 1 || kids[0] != (Kid{Label: "a", Pos: 1, Slot: 0}) {
		t.Errorf("KidsOf(root) = %v", kids)
	}
	if kids := pl.KidsOf(1); len(kids) != 1 || kids[0] != (Kid{Label: "b", Pos: 2, Slot: 0}) || pl.Nodes[2].ID != "z" {
		t.Errorf("KidsOf(x) = %v", kids)
	}
}

// TestPlanDAGMultiLevel: in a DAG an object reachable at several depths is
// handled per level; an edge not on a complete match path is dropped even
// when its endpoint is matched via another path (the r -a-> x case worked
// out in the package design notes).
func TestPlanDAGMultiLevel(t *testing.T) {
	s := model.NewInstance("r")
	_ = s.AddEdge("r", "x", "a")
	_ = s.AddEdge("r", "y", "a")
	_ = s.AddEdge("y", "x", "a")
	g := s.Graph()
	pl := NewPlan(g, MustParse("r.a.a"), nil)
	// x is matched (via y); the direct edge r→x is level-0→1, but x at
	// level 1 has no a-child, so that occurrence dies out.
	if !levelIDs(pl, 2)["x"] || !levelIDs(pl, 1)["y"] {
		t.Error("match path through y lost")
	}
	if levelIDs(pl, 1)["x"] {
		t.Error("dead-end level-1 occurrence of x kept")
	}
	wantEdges := []graph.Edge{{From: "r", To: "y", Label: "a"}, {From: "y", To: "x", Label: "a"}}
	if got := planEdges(pl); !reflect.DeepEqual(got, wantEdges) {
		t.Errorf("edges = %v, want %v", got, wantEdges)
	}
}

// TestPlanTargetsRestriction: restricting the plan to one target keeps only
// that object's path ancestors (the Section 6.2 point-query extraction).
func TestPlanTargetsRestriction(t *testing.T) {
	g := fixtures.Figure1().Graph()
	pl := NewPlan(g, MustParse("R.book.author"), map[string]bool{"A3": true})
	if got := pl.Matched(); !reflect.DeepEqual(got, []string{"A3"}) {
		t.Errorf("Matched = %v", got)
	}
	// A3's books are B2 and B3; B1 is not a path ancestor of A3.
	if keep := levelIDs(pl, 1); keep["B1"] || !keep["B2"] || !keep["B3"] {
		t.Errorf("level 1 = %v", keep)
	}
	// A3 is one node however many books reach it.
	if lo, hi := pl.Level(2); hi-lo != 1 {
		t.Errorf("level 2 holds %d nodes, want 1", hi-lo)
	}
}

// TestPlanSelfDAGEdgeDedup: an object met at several depths is one node per
// depth, and an edge kept at one depth is kept once there.
func TestPlanSelfDAGEdgeDedup(t *testing.T) {
	s := model.NewInstance("r")
	_ = s.AddEdge("r", "m", "a")
	_ = s.AddEdge("m", "n", "a")
	_ = s.AddEdge("n", "q", "a")
	_ = s.AddEdge("r", "n", "a")
	g := s.Graph()
	// Path r.a.a.a: n occurs at levels 1 and 2, but only its level-2
	// occurrence reaches q at level 3.
	if msg := checkPlan(g, MustParse("r.a.a.a"), nil); msg != "" {
		t.Fatal(msg)
	}
	pl := NewPlan(g, MustParse("r.a.a.a"), nil)
	type at struct {
		parent int
		e      Kid
	}
	seen := map[at]bool{}
	for pos := range pl.Nodes {
		for _, k := range pl.KidsOf(pos) {
			if seen[at{pos, k}] {
				t.Errorf("duplicate edge %v under node %d", k, pos)
			}
			seen[at{pos, k}] = true
		}
	}
	if want := []graph.Edge{{From: "m", To: "n", Label: "a"}, {From: "n", To: "q", Label: "a"}, {From: "r", To: "m", Label: "a"}}; !reflect.DeepEqual(planEdges(pl), want) {
		t.Errorf("edges = %v, want %v", planEdges(pl), want)
	}
}

// TestLevelsEmptyRoot: a root the graph lacks reaches nothing, so the plan
// is empty at every level and denotes no object.
func TestLevelsEmptyRoot(t *testing.T) {
	g := model.NewInstance("r").Graph()
	p := MustParse("q.a")
	pl := NewPlan(g, p, nil)
	if !pl.IsEmpty() || len(pl.Matched()) != 0 {
		t.Errorf("plan = %+v", pl)
	}
	for i := 0; i <= p.Len(); i++ {
		if lo, hi := pl.Level(i); lo != hi {
			t.Errorf("level %d = [%d,%d)", i, lo, hi)
		}
	}
	if got := p.Targets(g); len(got) != 0 || p.Matches(g, "q") {
		t.Errorf("Targets = %v", got)
	}
}

// TestIndexedEvaluationMatchesDirect: evaluation through a held index and
// straight from the graph give the reference's targets and plans on the
// Figure 1 instance for every label combination.
func TestIndexedEvaluationMatchesDirect(t *testing.T) {
	s := fixtures.Figure1()
	g := s.Graph()
	idx := NewIndex(g)
	if idx != NewIndex(g) {
		t.Error("the graph did not keep its index")
	}
	paths := []string{
		"R.book.author", "R.book.title", "R.book.author.institution",
		"R.*.author", "R.book.*", "R.missing", "X.book", "R",
	}
	for _, ps := range paths {
		p := MustParse(ps)
		want := refNewPlan(g, p, nil).Matched()
		if got := p.TargetsIndexed(idx); !reflect.DeepEqual(got, want) {
			t.Errorf("TargetsIndexed(%s) = %v, want %v", ps, got, want)
		}
		if got := p.Targets(g); !reflect.DeepEqual(got, want) {
			t.Errorf("Targets(%s) = %v, want %v", ps, got, want)
		}
		if msg := checkPlan(g, p, nil); msg != "" {
			t.Errorf("plan for %s: %s", ps, msg)
		}
	}
	// Targets restriction matches too.
	if msg := checkPlan(g, MustParse("R.book.author"), map[string]bool{"A3": true}); msg != "" {
		t.Errorf("restricted plan: %s", msg)
	}
	// An edge added after the index was built is seen by the next one.
	_ = s.AddEdge("R", "J1", "journal")
	if got := MustParse("R.journal").Targets(s.Graph()); !reflect.DeepEqual(got, []string{"J1"}) {
		t.Errorf("after AddEdge: Targets = %v", got)
	}
}
