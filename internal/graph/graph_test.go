package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// bibRef builds the semistructured instance graph of Figure 1.
func bibRef(t *testing.T) *refGraph {
	t.Helper()
	g := newRef()
	edges := []Edge{
		{"R", "B1", "book"}, {"R", "B2", "book"}, {"R", "B3", "book"},
		{"B1", "T1", "title"}, {"B1", "A1", "author"}, {"B1", "A2", "author"},
		{"B2", "A1", "author"}, {"B2", "A2", "author"}, {"B2", "A3", "author"},
		{"B3", "T2", "title"}, {"B3", "A3", "author"},
		{"A1", "I1", "institution"}, {"A2", "I1", "institution"}, {"A2", "I2", "institution"},
		{"A3", "I2", "institution"},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.From, e.To, e.Label); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

// bibGraph is the Graph of Figure 1.
func bibGraph(t *testing.T) *Graph { return bibRef(t).csr() }

func TestChildrenParentsLCh(t *testing.T) {
	g := bibGraph(t)
	if got, want := g.Children("B1"), []string{"A1", "A2", "T1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Children(B1) = %v, want %v", got, want)
	}
	if got, want := g.Parents("A1"), []string{"B1", "B2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Parents(A1) = %v, want %v", got, want)
	}
	if got, want := g.LCh("B1", "author"), []string{"A1", "A2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("LCh(B1,author) = %v, want %v", got, want)
	}
	if got := g.LCh("B1", "institution"); len(got) != 0 {
		t.Errorf("LCh(B1,institution) = %v, want empty", got)
	}
	if l, ok := g.Label("B1", "T1"); !ok || l != "title" {
		t.Errorf("Label(B1,T1) = %q,%v", l, ok)
	}
	if _, ok := g.Label("B1", "I1"); ok {
		t.Error("Label(B1,I1) should not exist")
	}
}

func TestLeavesRootsDegrees(t *testing.T) {
	g := bibGraph(t)
	var leaves, roots []string
	for _, id := range g.Nodes() {
		if g.IsLeaf(id) {
			leaves = append(leaves, id)
		}
		if len(g.Parents(id)) == 0 {
			roots = append(roots, id)
		}
	}
	if want := []string{"I1", "I2", "T1", "T2"}; !reflect.DeepEqual(leaves, want) {
		t.Errorf("leaves = %v, want %v", leaves, want)
	}
	if want := []string{"R"}; !reflect.DeepEqual(roots, want) {
		t.Errorf("roots = %v, want %v", roots, want)
	}
	if len(g.Children("R")) != 3 || len(g.Parents("R")) != 0 {
		t.Errorf("degrees of R: out=%d in=%d", len(g.Children("R")), len(g.Parents("R")))
	}
	if !g.IsLeaf("I1") || g.IsLeaf("A1") {
		t.Error("IsLeaf misclassification")
	}
}

func TestDescendants(t *testing.T) {
	g := bibGraph(t)
	if got, want := g.Descendants("B3"), []string{"A3", "I2", "T2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Descendants(B3) = %v, want %v", got, want)
	}
	if got := g.Descendants("I1"); len(got) != 0 {
		t.Errorf("Descendants of a leaf = %v", got)
	}
}

func TestReachableFrom(t *testing.T) {
	ref := bibRef(t)
	ref.AddNode("orphan")
	g := ref.csr()
	all := g.ReachableFrom("R")
	if len(all) != len(g.Nodes())-1 {
		t.Errorf("ReachableFrom(R) = %d nodes, want %d", len(all), len(g.Nodes())-1)
	}
	if got := g.ReachableFrom("missing"); got != nil {
		t.Errorf("ReachableFrom(missing) = %v, want nil", got)
	}
	if got, want := g.ReachableFrom("A3"), []string{"A3", "I2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ReachableFrom(A3) = %v, want %v", got, want)
	}
}

func TestTopoSortAcyclic(t *testing.T) {
	g := bibGraph(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[string]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %v violates topological order", e)
		}
	}
	if !g.Shape("R").Acyclic {
		t.Error("Shape(R).Acyclic = false for DAG")
	}
}

func TestTopoSortCycle(t *testing.T) {
	ref := newRef()
	_ = ref.AddEdge("a", "b", "x")
	_ = ref.AddEdge("b", "c", "x")
	_ = ref.AddEdge("c", "a", "x")
	g := ref.csr()
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
	if g.Shape("a").Acyclic {
		t.Error("Shape(a).Acyclic = true for cycle")
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	ref := newRef()
	_ = ref.AddEdge("a", "a", "x")
	if g := ref.csr(); g.Shape("a").Acyclic {
		t.Error("self-loop should be cyclic")
	}
}

func TestEachChildOrderAndLabels(t *testing.T) {
	g := bibGraph(t)
	var got []string
	g.EachChild("B1", func(c, l string) { got = append(got, c+":"+l) })
	want := []string{"A1:author", "A2:author", "T1:title"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachChild = %v, want %v", got, want)
	}
}

// randomDAG builds a random DAG by only adding edges from lower-numbered to
// higher-numbered vertices.
func randomDAG(r *rand.Rand, n int) *Graph {
	g := newRef()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		g.AddNode(names[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 {
				_ = g.AddEdge(names[i], names[j], "l")
			}
		}
	}
	return g.csr()
}

func TestQuickTopoSortRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(12))
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[string]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return len(order) == len(g.Nodes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDescendantPartition: on a DAG what is reachable from o splits
// into o itself and des(o).
func TestQuickDescendantPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(12))
		for _, o := range g.Nodes() {
			var rest []string
			for _, id := range g.ReachableFrom(o) {
				if id != o {
					rest = append(rest, id)
				}
			}
			if des := g.Descendants(o); len(des) != len(rest) || len(des) > 0 && !reflect.DeepEqual(des, rest) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickShapeMatchesSeparatePasses: Shape's one pass agrees with
// TopoSort, ReachableFrom and a degree scan on random graphs — trees,
// forests, DAGs with shared children, graphs with cycles on and off the
// root's side — and Parents with the edge list.
func TestQuickShapeMatchesSeparatePasses(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		name := func(i int) string { return string(rune('a' + i)) }
		b := newRefSized(n)
		for i := 0; i < n; i++ {
			b.AddNode(name(i))
		}
		switch r.Intn(3) {
		case 0: // a tree, possibly missing a few edges (a forest)
			for i := 1; i < n; i++ {
				if r.Intn(8) > 0 {
					_ = b.AddEdge(name(r.Intn(i)), name(i), "l")
				}
			}
		case 1: // forward edges only: a DAG
			for k := r.Intn(2 * n); k > 0; k-- {
				if i, j := r.Intn(n), r.Intn(n); i < j {
					_ = b.AddEdge(name(i), name(j), "l")
				}
			}
		default: // anything, self-loops and edges into the root included
			for k := r.Intn(2 * n); k > 0; k-- {
				_ = b.AddEdge(name(r.Intn(n)), name(r.Intn(n)), "l")
			}
		}
		g := b.csr()
		root := name(0)
		reach := g.ReachableFrom(root)
		_, err := g.TopoSort()
		acyclic := err == nil
		tree := acyclic && len(reach) == n && len(g.Parents(root)) == 0
		for i := 1; i < n; i++ {
			tree = tree && len(g.Parents(name(i))) == 1
		}
		got := g.Shape(root)
		if got.Acyclic != acyclic || got.Tree != tree {
			t.Logf("seed %d: %+v, want acyclic %v tree %v (edges %v)", seed, got, acyclic, tree, g.Edges())
			return false
		}
		if got.Reachable != len(reach) && !(got.Reachable == -1 && !got.Acyclic) {
			t.Logf("seed %d: reachable %d, want %d (edges %v)", seed, got.Reachable, len(reach), g.Edges())
			return false
		}
		// Edges is sorted by (From, To), so the sources of the edges into
		// one vertex come out in the sorted order Parents promises.
		ps := make(map[string][]string)
		for _, e := range g.Edges() {
			ps[e.To] = append(ps[e.To], e.From)
		}
		for i := 0; i < n; i++ {
			if got := g.Parents(name(i)); len(got) != len(ps[name(i)]) || len(got) > 0 && !reflect.DeepEqual(got, ps[name(i)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
	if got := newRef().csr().Shape("nowhere"); got != (Shape{Acyclic: true}) {
		t.Errorf("Shape of a root that is no vertex = %+v", got)
	}
}

// TestSuccessors: the table lists a vertex's out-edges by (label, target),
// Via cuts out one label's run, Forest reads the in-degrees, and an added
// edge is in the next graph's table.
func TestSuccessors(t *testing.T) {
	ref := newRef()
	for _, e := range []Edge{{"r", "c", "b"}, {"r", "a", "b"}, {"r", "z", "a"}, {"r", "b", "c"}, {"a", "x", "b"}} {
		if err := ref.AddEdge(e.From, e.To, e.Label); err != nil {
			t.Fatal(err)
		}
	}
	g := ref.csr()
	s := g.Successors()
	if s != g.Successors() || s.Graph() != g {
		t.Error("the graph did not keep its table")
	}
	// r's children in name order are a, b, c, z: an arc's slot is its
	// target's place there.
	num := func(v string) int32 { n, _ := g.Vertex(v); return n }
	arc := func(to, l string, slot int32) Arc { return Arc{Label: l, V: num(to), Slot: slot} }
	if got, want := s.Out(num("r")), []Arc{arc("z", "a", 3), arc("a", "b", 0), arc("c", "b", 2), arc("b", "c", 1)}; !reflect.DeepEqual(got, want) {
		t.Errorf("Out(r) = %v, want %v", got, want)
	}
	if got, want := s.Via(num("r"), "b"), []Arc{arc("a", "b", 0), arc("c", "b", 2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("Via(r,b) = %v, want %v", got, want)
	}
	for _, l := range []string{"", "aa", "bb", "d"} {
		if got := s.Via(num("r"), l); len(got) != 0 {
			t.Errorf("Via(r,%q) = %v", l, got)
		}
	}
	if len(s.Out(num("x"))) != 0 || len(s.Via(num("x"), "b")) != 0 {
		t.Error("a leaf has successors")
	}
	if !s.Forest() {
		t.Error("one parent each, yet not a forest")
	}
	if err := ref.AddEdge("c", "x", "b"); err != nil {
		t.Fatal(err)
	}
	g = ref.csr()
	s = g.Successors()
	if s.Forest() || !reflect.DeepEqual(s.Via(num("c"), "b"), []Arc{arc("x", "b", 0)}) {
		t.Errorf("after AddEdge: forest %v, Via(c,b) = %v", s.Forest(), s.Via(num("c"), "b"))
	}
}

// TestSuccessorsConcurrentFirstUse: readers of a published graph may all
// ask for the table at once; each gets an equal one (run under -race).
func TestSuccessorsConcurrentFirstUse(t *testing.T) {
	ref := newRef()
	for i := 0; i < 200; i++ {
		_ = ref.AddEdge(fmt.Sprintf("n%d", i/3), fmt.Sprintf("n%d", i+1), string(rune('a'+i%3)))
	}
	g, want := ref.csr(), ref.csr().Successors()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := g.Successors()
			for i := 0; i <= 200; i++ {
				v, _ := g.Vertex(fmt.Sprintf("n%d", i))
				if !reflect.DeepEqual(s.Out(v), want.Out(v)) {
					t.Errorf("Out(n%d) = %v, want %v", i, s.Out(v), want.Out(v))
				}
			}
		}()
	}
	wg.Wait()
}
