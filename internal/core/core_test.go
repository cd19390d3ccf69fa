package core_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFigure2Valid(t *testing.T) {
	pi := fixtures.Figure2()
	if err := pi.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if pi.NumObjects() != 11 {
		t.Errorf("objects = %d, want 11", pi.NumObjects())
	}
	if pi.IsTree() {
		t.Error("Figure 2 weak instance graph is a DAG, not a tree")
	}
	if err := pi.CheckAcyclic(); err != nil {
		t.Errorf("CheckAcyclic: %v", err)
	}
}

// TestFigure2PCSizes checks PC(o) against the OPF tables of Figure 2.
func TestFigure2PCSizes(t *testing.T) {
	pi := fixtures.Figure2()
	cases := []struct {
		o    string
		want int
	}{
		{"R", 4},  // card [2,3] over 3 books: C(3,2)+C(3,3)
		{"B1", 6}, // (authors: {A1},{A2},{A1,A2}) × (titles: ∅,{T1})
		{"B2", 3}, // 2-subsets of 3 authors
		{"B3", 1},
		{"A1", 2}, // ∅ and {I1}
		{"A2", 2},
		{"A3", 1},
	}
	for _, c := range cases {
		pc, err := pi.PotentialChildSets(c.o, 0)
		if err != nil {
			t.Fatalf("PC(%s): %v", c.o, err)
		}
		if len(pc) != c.want {
			t.Errorf("|PC(%s)| = %d, want %d (%v)", c.o, len(pc), c.want, pc)
		}
		if got := pi.PCSize(c.o, 0); got != c.want {
			t.Errorf("PCSize(%s) = %d, want %d", c.o, got, c.want)
		}
	}
}

func TestFigure2Example32PotentialSets(t *testing.T) {
	pi := fixtures.Figure2()
	// Example 3.2: PL(B1, author) = {{A1},{A2},{A1,A2}}.
	pl := pi.PotentialLChildSets("B1", "author")
	if len(pl) != 3 {
		t.Fatalf("PL(B1,author) = %v", pl)
	}
	// card(A1, institution) = [0,1]: A1 may have no institution.
	pl = pi.PotentialLChildSets("A1", "institution")
	if len(pl) != 2 || !pl[0].IsEmpty() {
		t.Errorf("PL(A1,institution) = %v", pl)
	}
}

// s1 builds the compatible instance S1 of Figure 3.
func s1(t *testing.T) *model.Instance {
	t.Helper()
	s := model.NewInstance("R")
	if err := s.RegisterType(model.NewType("title-type", "VQDB", "Lore")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterType(model.NewType("institution-type", "Stanford", "UMD")); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][3]string{
		{"R", "B1", "book"}, {"R", "B2", "book"},
		{"B1", "A1", "author"}, {"B1", "T1", "title"},
		{"B2", "A1", "author"}, {"B2", "A2", "author"},
		{"A1", "I1", "institution"}, {"A2", "I1", "institution"},
	} {
		if err := s.AddEdge(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetLeaf("T1", "title-type", "VQDB"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLeaf("I1", "institution-type", "Stanford"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExample41InstanceProb reproduces Example 4.1: P(S1) is the product of
// the local factors P(B1,B2|R)·P(A1,T1|B1)·P(A1,A2|B2)·P(I1|A1)·P(I1|A2) =
// 0.2·0.35·0.4·0.8·0.5. (That product is 0.0112; the paper's printed value
// 0.00448 is an arithmetic slip in the final multiplication — the factored
// expression above is taken verbatim from the example.)
func TestExample41InstanceProb(t *testing.T) {
	pi := fixtures.Figure2()
	s := s1(t)
	if err := pi.Compatible(s); err != nil {
		t.Fatalf("S1 should be compatible: %v", err)
	}
	p, err := pi.InstanceProb(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.2 * 0.35 * 0.4 * 0.8 * 0.5
	if !approx(p, want) {
		t.Errorf("P(S1) = %v, want %v", p, want)
	}
}

func TestCompatibleRejections(t *testing.T) {
	pi := fixtures.Figure2()

	// Wrong root.
	bad := model.NewInstance("X")
	if err := pi.Compatible(bad); err == nil {
		t.Error("wrong root accepted")
	}

	// Unknown object.
	s := model.NewInstance("R")
	_ = s.AddEdge("R", "B9", "book")
	if err := pi.Compatible(s); err == nil || !strings.Contains(err.Error(), "not in weak instance") {
		t.Errorf("unknown object: %v", err)
	}

	// Edge not sanctioned by lch (wrong label): use a minimal weak
	// instance so the label mismatch is the only defect.
	mini := core.NewProbInstance("r")
	mini.SetLCh("r", "good", "x")
	wOPF := prob.NewOPF()
	wOPF.Put(sets.NewSet(), 0.5)
	wOPF.Put(sets.NewSet("x"), 0.5)
	mini.SetOPF("r", wOPF)
	s2 := model.NewInstance("r")
	_ = s2.AddEdge("r", "x", "bad")
	if err := mini.Compatible(s2); err == nil || !strings.Contains(err.Error(), "not sanctioned") {
		t.Errorf("bad label: %v", err)
	}

	// Cardinality violation: R needs 2..3 books.
	s3 := model.NewInstance("R")
	_ = s3.AddEdge("R", "B3", "book")
	_ = s3.AddEdge("B3", "T2", "title")
	_ = s3.AddEdge("B3", "A3", "author")
	_ = s3.AddEdge("A3", "I2", "institution")
	_ = s3.RegisterType(model.NewType("title-type", "VQDB", "Lore"))
	_ = s3.RegisterType(model.NewType("institution-type", "Stanford", "UMD"))
	_ = s3.SetLeaf("T2", "title-type", "Lore")
	_ = s3.SetLeaf("I2", "institution-type", "UMD")
	if err := pi.Compatible(s3); err == nil || !strings.Contains(err.Error(), "card") {
		t.Errorf("card violation: %v", err)
	}

	// Weak leaf with children.
	s4 := s1(t)
	_ = s4.AddEdge("I1", "X", "x")
	if err := pi.Compatible(s4); err == nil {
		t.Error("leaf with children accepted")
	}

	// Typed leaf missing its value.
	s5 := s1(t)
	_ = s5.AddEdge("B1", "A2", "author")
	_ = s5.AddEdge("A2", "I2", "institution")
	// I2 present but without a leaf value: compatibility must fail.
	if err := pi.Compatible(s5); err == nil {
		t.Error("typed leaf without value accepted")
	}
}

func TestInstanceProbIncompatibleIsError(t *testing.T) {
	pi := fixtures.Figure2()
	s := model.NewInstance("R")
	_ = s.AddEdge("R", "B9", "book")
	if _, err := pi.InstanceProb(s); err == nil {
		t.Error("expected error for incompatible instance")
	}
}

func TestValidateRejectsBadOPFs(t *testing.T) {
	// Missing OPF.
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "l", "a")
	if err := pi.Validate(); err == nil || !strings.Contains(err.Error(), "no OPF") {
		t.Errorf("missing OPF: %v", err)
	}

	// OPF with mass != 1.
	w := prob.NewOPF()
	w.Put(sets.NewSet("a"), 0.5)
	pi.SetOPF("r", w)
	if err := pi.Validate(); err == nil {
		t.Error("bad mass accepted")
	}

	// OPF supporting a set outside PC (violates card).
	pi2 := core.NewProbInstance("r")
	pi2.SetLCh("r", "l", "a", "b")
	pi2.SetCard("r", "l", 2, 2)
	w2 := prob.NewOPF()
	w2.Put(sets.NewSet("a"), 1.0)
	pi2.SetOPF("r", w2)
	if err := pi2.Validate(); err == nil {
		t.Error("OPF support outside PC accepted")
	}
	// The same check must also trip without full PC enumeration.
	if err := pi2.ValidateLite(); err == nil {
		t.Error("ValidateLite missed card violation in OPF support")
	}

	// OPF supporting a non-child.
	pi3 := core.NewProbInstance("r")
	pi3.SetLCh("r", "l", "a")
	w3 := prob.NewOPF()
	w3.Put(sets.NewSet("z"), 1.0)
	pi3.SetOPF("r", w3)
	pi3.AddObject("z")
	if err := pi3.ValidateLite(); err == nil {
		t.Error("OPF supporting non-child accepted")
	}
}

func TestValidateRejectsCyclicWeakGraph(t *testing.T) {
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "l", "a")
	pi.SetLCh("a", "l", "b")
	pi.SetLCh("b", "l", "a") // cycle a → b → a
	for _, o := range []string{"r", "a", "b"} {
		w := prob.NewOPF()
		w.Put(sets.NewSet(), 0.5)
		pc, _ := pi.PotentialChildSets(o, 0)
		_ = pc
		w.Put(pi.LCh(o, "l"), 0.5)
		pi.SetOPF(o, w)
	}
	if err := pi.Validate(); err == nil || !strings.Contains(err.Error(), "acyclic") {
		t.Errorf("cyclic weak graph: %v", err)
	}
}

func TestWeakValidateRejectsDoubleLabelChild(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "a", "x")
	w.SetLCh("r", "b", "x")
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "under labels") {
		t.Errorf("double-label child: %v", err)
	}
}

func TestWeakValidateRejectsRootAsChild(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "a", "x")
	w.SetLCh("x", "a", "r")
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "root") {
		t.Errorf("root as child: %v", err)
	}
}

func TestCardDefaults(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "l", "a", "b", "c")
	if got := w.Card("r", "l"); got.Min != 0 || got.Max != 3 {
		t.Errorf("default card = %v", got)
	}
	w.SetCard("r", "l", 1, 2)
	if got := w.Card("r", "l"); got.Min != 1 || got.Max != 2 {
		t.Errorf("explicit card = %v", got)
	}
}

func TestWeakGraphRespectsCard(t *testing.T) {
	// card [0,0] removes children from the weak instance graph entirely.
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "l", "a")
	w.SetCard("r", "l", 0, 0)
	g := w.Graph()
	if slices.Contains(g.Children("r"), "a") {
		t.Error("edge exists despite card [0,0]")
	}
	// An unsatisfiable label annihilates all of the object's edges.
	w2 := core.NewWeakInstance("r")
	w2.SetLCh("r", "l", "a")
	w2.SetLCh("r", "m", "b")
	w2.SetCard("r", "m", 2, 2) // only one potential m-child: impossible
	g2 := w2.Graph()
	if slices.Contains(g2.Children("r"), "a") || slices.Contains(g2.Children("r"), "b") {
		t.Error("edges exist despite annihilated PC")
	}
	pc, err := w2.PotentialChildSets("r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc) != 0 {
		t.Errorf("PC = %v, want empty", pc)
	}
}

func TestIsTree(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "l", "a", "b")
	w.SetLCh("a", "l", "c")
	if !w.IsTree() {
		t.Error("tree not recognized")
	}
	w.SetLCh("b", "l", "c") // c now has two parents
	if w.IsTree() {
		t.Error("DAG recognized as tree")
	}
	// Unreachable object breaks treeness.
	w2 := core.NewWeakInstance("r")
	w2.SetLCh("r", "l", "a")
	w2.AddObject("island")
	if w2.IsTree() {
		t.Error("instance with unreachable object recognized as tree")
	}
}

func TestPCLimitGuard(t *testing.T) {
	w := core.NewWeakInstance("r")
	ids := make([]string, 24)
	for i := range ids {
		ids[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	w.SetLCh("r", "l", ids...)
	if _, err := w.PotentialChildSets("r", 1000); err == nil {
		t.Error("PC explosion not guarded")
	}
	if got := w.PCSize("r", 1000); got != 1001 {
		t.Errorf("PCSize = %d, want 1001", got)
	}
}

func TestRenameProbInstance(t *testing.T) {
	pi := fixtures.Figure2()
	ren := pi.Rename(map[model.ObjectID]model.ObjectID{"B1": "X1", "A1": "Y1"})
	if err := ren.Validate(); err != nil {
		t.Fatalf("renamed instance invalid: %v", err)
	}
	if ren.HasObject("B1") || !ren.HasObject("X1") {
		t.Error("rename failed for object B1")
	}
	if !ren.LCh("R", "book").Contains("X1") {
		t.Error("lch not renamed")
	}
	if got := ren.OPF("R").Prob(sets.NewSet("X1", "B2")); !approx(got, 0.2) {
		t.Errorf("renamed OPF prob = %v", got)
	}
	if got := ren.OPF("X1").Prob(sets.NewSet("Y1", "T1")); !approx(got, 0.35) {
		t.Errorf("renamed nested OPF prob = %v", got)
	}
	// Original untouched.
	if !pi.HasObject("B1") || pi.HasObject("X1") {
		t.Error("rename mutated original")
	}
}

func TestCloneDeep(t *testing.T) {
	pi := fixtures.Figure2()
	c := pi.Clone()
	c.SetCard("R", "book", 0, 3)
	c.OPF("B1").Put(sets.NewSet("A1"), 0.9)
	if got := pi.Card("R", "book"); got.Min != 2 {
		t.Error("clone shares card map")
	}
	if got := pi.OPF("B1").Prob(sets.NewSet("A1")); !approx(got, 0.3) {
		t.Error("clone shares OPFs")
	}
}

func TestDepthAndStats(t *testing.T) {
	pi := fixtures.Figure2()
	d, err := pi.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 { // R → book → author → institution
		t.Errorf("depth = %d, want 3", d)
	}
	st := pi.ComputeStats()
	if st.Objects != 11 || st.Leaves != 4 || st.Depth != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.OPFEntries != 4+6+3+1+2+2+1 {
		t.Errorf("OPF entries = %d", st.OPFEntries)
	}
	if st.VPFEntries != 4 {
		t.Errorf("VPF entries = %d", st.VPFEntries)
	}
}

func TestDefaultValue(t *testing.T) {
	w := core.NewWeakInstance("r")
	if err := w.SetDefaultValue("x", "v"); err == nil {
		t.Error("default value without type accepted")
	}
	if err := w.RegisterType(model.NewType("t", "v", "u")); err != nil {
		t.Fatal(err)
	}
	if err := w.SetLeafType("x", "t"); err != nil {
		t.Fatal(err)
	}
	if err := w.SetDefaultValue("x", "z"); err == nil {
		t.Error("out-of-domain default accepted")
	}
	if err := w.SetDefaultValue("x", "v"); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.DefaultValue("x"); !ok || v != "v" {
		t.Errorf("DefaultValue = %q,%v", v, ok)
	}
}

func TestSetLChRemoval(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "l", "a")
	w.SetLCh("r", "l")
	if !w.IsLeaf("r") {
		t.Error("clearing lch did not make r a leaf")
	}
	if len(w.Labels("r")) != 0 {
		t.Errorf("Labels = %v", w.Labels("r"))
	}
}

// TestQuickRandomInstancesValidate: every randomly generated fixture
// instance passes full validation.
func TestQuickRandomInstancesValidate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.Validate() != nil {
			return false
		}
		dag := fixtures.RandomDAG(r)
		return dag.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomTreesAreTrees: the tree fixture really produces trees.
func TestQuickRandomTreesAreTrees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return fixtures.RandomTree(r).IsTree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestEqualEdgeCases exercises the instance-equality helper directly (it
// is mostly used by other packages' round-trip tests).
func TestEqualEdgeCases(t *testing.T) {
	a := fixtures.Figure2()
	b := fixtures.Figure2()
	if !core.Equal(a, b, 1e-12) {
		t.Fatal("identical instances unequal")
	}
	// Different root.
	if core.Equal(a, core.NewProbInstance("X"), 1e-12) {
		t.Error("different roots equal")
	}
	// Probability perturbation beyond tolerance.
	c := fixtures.Figure2()
	c.OPF("B1").Put(sets.NewSet("A1"), 0.30001)
	if core.Equal(a, c, 1e-9) {
		t.Error("perturbed OPF equal")
	}
	if !core.Equal(a, c, 1e-3) {
		t.Error("perturbation outside loose tolerance")
	}
	// VPF difference.
	d := fixtures.Figure2()
	d.SetVPF("T1", prob.PointMass("Lore"))
	if core.Equal(a, d, 1e-9) {
		t.Error("different VPFs equal")
	}
	// Card difference.
	e := fixtures.Figure2()
	e.SetCard("R", "book", 1, 3)
	if core.Equal(a, e, 1e-9) {
		t.Error("different cards equal")
	}
	// Missing vs present OPF: only equal when the present one has ~zero
	// mass.
	f := fixtures.Figure2()
	f.SetOPF("Z1", prob.NewOPF())
	f.AddObject("Z1")
	g := fixtures.Figure2()
	g.AddObject("Z1")
	if !core.Equal(f, g, 1e-9) {
		t.Error("zero-mass OPF should compare equal to absent")
	}
	// Type domain difference.
	h := core.NewProbInstance("r")
	_ = h.RegisterType(model.NewType("t", "a"))
	_ = h.SetLeafType("x", "t")
	h.SetVPF("x", prob.PointMass("a"))
	h2 := core.NewProbInstance("r")
	_ = h2.RegisterType(model.NewType("t", "a", "b"))
	_ = h2.SetLeafType("x", "t")
	h2.SetVPF("x", prob.PointMass("a"))
	if core.Equal(h, h2, 1e-9) {
		t.Error("different domains equal")
	}
}

func TestWeakAccessors(t *testing.T) {
	pi := fixtures.Figure2()
	// AllChildren unions the per-label sets.
	got := pi.AllChildren("B1")
	if !got.Equal(sets.NewSet("A1", "A2", "T1")) {
		t.Errorf("AllChildren(B1) = %v", got)
	}
	if pi.AllChildren("T1").Len() != 0 {
		t.Errorf("AllChildren(leaf) = %v", pi.AllChildren("T1"))
	}
	// Types registry is exposed.
	if len(pi.Types()) != 2 {
		t.Errorf("Types = %v", pi.Types())
	}
	// Sorted local-function object lists.
	opfs := pi.SortedOPFObjects()
	if len(opfs) != 7 || opfs[0] != "A1" {
		t.Errorf("SortedOPFObjects = %v", opfs)
	}
	vpfs := pi.SortedVPFObjects()
	if len(vpfs) != 4 || vpfs[0] != "I1" {
		t.Errorf("SortedVPFObjects = %v", vpfs)
	}
	// FromWeak wraps without copying.
	w := pi.Weak()
	fw := core.FromWeak(w)
	if fw.Weak() != w {
		t.Error("FromWeak copied the weak instance")
	}
	if got := fw.SortedOPFObjects(); len(got) != 0 {
		t.Errorf("FromWeak interpretation not empty: %v", got)
	}
}

func TestRegisterTypeConflict(t *testing.T) {
	w := core.NewWeakInstance("r")
	if err := w.RegisterType(model.NewType("t", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterType(model.NewType("t", "a", "b")); err != nil {
		t.Errorf("identical re-registration rejected: %v", err)
	}
	if err := w.RegisterType(model.NewType("t", "a")); err == nil {
		t.Error("shorter domain accepted")
	}
	if err := w.RegisterType(model.NewType("t", "a", "c")); err == nil {
		t.Error("different domain accepted")
	}
	if err := w.RegisterType(model.Type{}); err == nil {
		t.Error("invalid type accepted")
	}
}

// TestGraphCacheInvalidation: the memoized weak instance graph reflects
// structural mutations and is rebuilt after invalidation.
func TestGraphCacheInvalidation(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "l", "a")
	g1 := w.Graph()
	if !slices.Contains(g1.Children("r"), "a") {
		t.Fatal("edge missing")
	}
	// Unmutated: the same graph object is returned.
	if w.Graph() != g1 {
		t.Error("cache not reused")
	}
	// Mutations invalidate.
	w.SetLCh("a", "m", "b")
	g2 := w.Graph()
	if g2 == g1 {
		t.Error("cache not invalidated by SetLCh")
	}
	if !slices.Contains(g2.Children("a"), "b") {
		t.Error("new edge missing")
	}
	w.SetCard("r", "l", 0, 0)
	if slices.Contains(w.Graph().Children("r"), "a") {
		t.Error("card change not reflected (cache stale)")
	}
	w.AddObject("island")
	if !w.Graph().HasNode("island") {
		t.Error("AddObject not reflected (cache stale)")
	}
	// Clones do not share the cache.
	c := w.Clone()
	c.SetLCh("island", "x", "y")
	if slices.Contains(w.Graph().Children("island"), "y") {
		t.Error("clone mutation leaked into original's graph")
	}
}
