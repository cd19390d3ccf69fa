// Package graph provides the edge-labeled directed graph substrate used by
// the PXML semistructured data model (Definitions 3.1 and 3.2 of the paper).
//
// A Graph is a finite set of string-identified vertices together with
// labeled directed edges. At most one edge may connect an ordered pair of
// vertices, matching the paper's formulation E ⊆ V × V with a labeling
// function ℓ : E → L. All iteration orders exposed by this package are
// deterministic (sorted) so that higher layers can produce canonical,
// reproducible output.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Graph is an edge-labeled directed graph in compressed sparse row form:
// built once by Build over the numbering of its builder (DESIGN §31) and
// never changed. Every row is sorted, so the accessors are slice walks, and
// the ones that return []string return views of one stored array, which
// callers must treat as read-only.
type Graph struct {
	// ids numbers the names; it is the builder's table, kept rather than
	// copied, so it may know numbers at or past len(names), which are no
	// vertices here.
	ids   map[string]int32
	names []string // by number
	// rank is each number's position in order, -1 for a number that is no
	// vertex; order lists the vertices in name order.
	rank  []int32
	order []int32
	out   rows // successors, each row in target order, with labels
	in    rows // predecessors, each row in source order
	succ  Successors
}

// rows is one direction of the adjacency: row v is [off[v], off[v+1]).
type rows struct {
	off   []int32
	v     []int32  // the other endpoint
	name  []string // its name, the array Children and Parents return views of
	label []string // the edge labels (successor rows only)
}

func (r *rows) row(v int32) (lo, hi int32) { return r.off[v], r.off[v+1] }

// Link is an edge between numbered vertices, as Build takes it.
type Link struct {
	From, To int32
	Label    string
}

// Build returns the graph over names, with an edge per link, whose
// vertices are order — numbers in name order — and any endpoint of links it
// lacks; with a nil order every name is a vertex. rank is order's inverse
// (position by number, -1 off order) and ids names's: Build keeps all four
// instead of copying them, so the caller must not change them afterwards,
// beyond adding names past the end. Of several links joining one ordered
// pair the first is kept.
func Build(ids map[string]int32, names []string, order, rank []int32, links []Link) *Graph {
	g := &Graph{ids: ids, names: names, rank: rank, order: order}
	var extra []int32
	if order == nil {
		g.rank = make([]int32, len(names))
		for v := range names {
			extra = append(extra, int32(v))
		}
	}
	for _, l := range links {
		for _, v := range [2]int32{l.From, l.To} {
			if g.rank[v] < 0 && !slices.Contains(extra, v) {
				// Only a weak instance that fails validation has an edge
				// outside its order.
				extra = append(extra, v)
			}
		}
	}
	if len(extra) > 0 {
		g.order = append(slices.Clone(order), extra...)
		slices.SortFunc(g.order, func(a, b int32) int { return cmp.Compare(names[a], names[b]) })
		g.rank = slices.Clone(g.rank)
		for k, v := range g.order {
			g.rank[v] = int32(k)
		}
	}
	if !slices.IsSortedFunc(links, func(a, b Link) int { return cmp.Compare(a.From, b.From) }) {
		links = slices.Clone(links)
		slices.SortStableFunc(links, func(a, b Link) int { return cmp.Compare(a.From, b.From) })
	}
	g.buildOut(links)
	g.buildIn()
	g.succ = newSuccessors(g)
	return g
}

// buildOut fills the successor rows from links sorted by source: each row
// sorted by target, a repeated target dropped.
func (g *Graph) buildOut(links []Link) {
	n := len(g.names)
	byTarget := func(a, b Link) int { return cmp.Compare(g.rank[a.To], g.rank[b.To]) }
	r := rows{off: make([]int32, n+1), v: make([]int32, 0, len(links)),
		name: make([]string, 0, len(links)), label: make([]string, 0, len(links))}
	for lo := 0; lo < len(links); {
		from, hi := links[lo].From, lo+1
		for hi < len(links) && links[hi].From == from {
			hi++
		}
		run := links[lo:hi]
		if !slices.IsSortedFunc(run, byTarget) {
			run = slices.Clone(run)
			slices.SortStableFunc(run, byTarget)
		}
		start := int32(len(r.v))
		for i, l := range run {
			if i > 0 && l.To == run[i-1].To {
				continue
			}
			r.v, r.name, r.label = append(r.v, l.To), append(r.name, g.names[l.To]), append(r.label, l.Label)
		}
		r.off[from+1] = int32(len(r.v)) - start
		lo = hi
	}
	for v := 0; v < n; v++ {
		r.off[v+1] += r.off[v]
	}
	g.out = r
}

// buildIn fills the predecessor rows from the successor rows; visiting the
// sources in name order leaves every row sorted.
func (g *Graph) buildIn() {
	n, m := len(g.names), len(g.out.v)
	r := rows{off: make([]int32, n+1), v: make([]int32, m), name: make([]string, m)}
	for _, to := range g.out.v {
		r.off[to+1]++
	}
	for v := 0; v < n; v++ {
		r.off[v+1] += r.off[v]
	}
	at := slices.Clone(r.off[:n])
	for _, from := range g.order {
		lo, hi := g.out.row(from)
		for _, to := range g.out.v[lo:hi] {
			r.v[at[to]], r.name[at[to]] = from, g.names[from]
			at[to]++
		}
	}
	g.in = r
}

// Vertex returns the number of vertex id.
func (g *Graph) Vertex(id string) (int32, bool) {
	v, ok := g.ids[id]
	if !ok || int(v) >= len(g.rank) || g.rank[v] < 0 {
		return 0, false
	}
	return v, true
}

// HasNode reports whether the vertex exists.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.Vertex(id)
	return ok
}

// outRow returns o's successor row; empty when o is no vertex.
func (g *Graph) outRow(o string) (lo, hi int32) {
	if v, ok := g.Vertex(o); ok {
		return g.out.row(v)
	}
	return 0, 0
}

// Label returns the label of the edge from → to. The boolean result is
// false when the edge does not exist.
func (g *Graph) Label(from, to string) (string, bool) {
	f, ok1 := g.Vertex(from)
	t, ok2 := g.Vertex(to)
	if !ok1 || !ok2 {
		return "", false
	}
	return g.EdgeLabel(f, t)
}

// EdgeLabel is Label between numbered vertices.
func (g *Graph) EdgeLabel(from, to int32) (string, bool) {
	lo, hi := g.out.row(from)
	for i := lo; i < hi; i++ {
		if g.out.v[i] == to {
			return g.out.label[i], true
		}
	}
	return "", false
}

// ChildNames returns the names of vertex v's successors in target order:
// Children by number. Slot numbers index this row.
func (g *Graph) ChildNames(v int32) []string {
	lo, hi := g.out.row(v)
	return g.out.name[lo:hi:hi]
}

// Slot returns the position of to in from's row of successors in target
// order; false when there is no edge from → to.
func (g *Graph) Slot(from, to int32) (int32, bool) {
	lo, hi := g.out.row(from)
	row := g.out.v[lo:hi]
	i, ok := slices.BinarySearchFunc(row, g.rank[to], func(c, r int32) int { return cmp.Compare(g.rank[c], r) })
	return int32(i), ok
}

// Name returns the id of vertex v.
func (g *Graph) Name(v int32) string { return g.names[v] }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.out.v) }

// Nodes returns all vertices in sorted order.
func (g *Graph) Nodes() []string { return g.namesOf(g.order) }

// namesOf returns the names of the numbers vs.
func (g *Graph) namesOf(vs []int32) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = g.names[v]
	}
	return out
}

// Edge is a labeled directed edge.
type Edge struct {
	From, To, Label string
}

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for _, from := range g.order {
		lo, hi := g.out.row(from)
		for i := lo; i < hi; i++ {
			es = append(es, Edge{From: g.names[from], To: g.out.name[i], Label: g.out.label[i]})
		}
	}
	return es
}

// Children returns C(o), the successors of o, in sorted order (Def 3.2).
func (g *Graph) Children(o string) []string {
	lo, hi := g.outRow(o)
	return g.out.name[lo:hi:hi]
}

// Parents returns parents(o), the predecessors of o, in sorted order
// (Def 3.2).
func (g *Graph) Parents(o string) []string {
	if v, ok := g.Vertex(o); ok {
		lo, hi := g.in.row(v)
		return g.in.name[lo:hi:hi]
	}
	return nil
}

// Pred returns the numbers of vertex v's parents, in name order.
func (g *Graph) Pred(v int32) []int32 {
	lo, hi := g.in.row(v)
	return g.in.v[lo:hi:hi]
}

// LCh returns lch(o, l): the children of o reached via edges labeled l, in
// sorted order (Def 3.2).
func (g *Graph) LCh(o, label string) []string {
	var cs []string
	lo, hi := g.outRow(o)
	for i := lo; i < hi; i++ {
		if g.out.label[i] == label {
			cs = append(cs, g.out.name[i])
		}
	}
	return cs
}

// IsLeaf reports whether o has no children (Def 3.2).
func (g *Graph) IsLeaf(o string) bool { return len(g.Children(o)) == 0 }

// reach returns, in name order, what a walk from the given vertices meets.
func (g *Graph) reach(from []int32) []string {
	seen := make([]bool, len(g.names))
	var got []int32
	stack := slices.Clone(from)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		got = append(got, cur)
		lo, hi := g.out.row(cur)
		stack = append(stack, g.out.v[lo:hi]...)
	}
	slices.SortFunc(got, func(a, b int32) int { return cmp.Compare(g.rank[a], g.rank[b]) })
	return g.namesOf(got)
}

// Descendants returns des(o): every vertex reachable from o by a non-empty
// directed path, in sorted order (Def 3.2).
func (g *Graph) Descendants(o string) []string {
	v, ok := g.Vertex(o)
	if !ok {
		return []string{}
	}
	lo, hi := g.out.row(v)
	return g.reach(g.out.v[lo:hi])
}

// ReachableFrom returns the set of vertices reachable from root, including
// root itself, in sorted order.
func (g *Graph) ReachableFrom(root string) []string {
	v, ok := g.Vertex(root)
	if !ok {
		return nil
	}
	return g.reach([]int32{v})
}

// TopoSort returns a topological order of all vertices, of the vertices
// free at each step the smallest first. It returns an error naming a vertex
// on a cycle if the graph is cyclic.
func (g *Graph) TopoSort() ([]string, error) {
	indeg := make([]int32, len(g.names))
	var ready rankHeap
	for _, v := range g.order {
		lo, hi := g.in.row(v)
		if indeg[v] = hi - lo; indeg[v] == 0 {
			ready.push(g.rank[v])
		}
	}
	order := make([]string, 0, len(g.order))
	for len(ready) > 0 {
		cur := g.order[ready.pop()]
		order = append(order, g.names[cur])
		lo, hi := g.out.row(cur)
		for _, c := range g.out.v[lo:hi] {
			if indeg[c]--; indeg[c] == 0 {
				ready.push(g.rank[c])
			}
		}
	}
	if len(order) != len(g.order) {
		for _, v := range g.order {
			if indeg[v] > 0 {
				return nil, fmt.Errorf("graph: cycle detected through vertex %q", g.names[v])
			}
		}
	}
	return order, nil
}

// rankHeap is a binary min-heap of vertex ranks.
type rankHeap []int32

func (h *rankHeap) push(r int32) {
	*h = append(*h, r)
	for i := len(*h) - 1; i > 0 && (*h)[(i-1)/2] > (*h)[i]; i = (i - 1) / 2 {
		(*h)[(i-1)/2], (*h)[i] = (*h)[i], (*h)[(i-1)/2]
	}
}

func (h *rankHeap) pop() int32 {
	s, top := *h, (*h)[0]
	n := len(s) - 1
	s[0], s = s[n], s[:n]
	for i, m := 0, 0; ; i = m {
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && s[c] < s[m] {
				m = c
			}
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
	}
	*h = s
	return top
}

// Shape is what one pass over the graph establishes about its form
// relative to a root vertex.
type Shape struct {
	// Acyclic reports that no directed cycle exists anywhere in the graph,
	// reachable from the root or not.
	Acyclic bool
	// Tree reports that the graph is a tree rooted at the root: acyclic,
	// the root has no parent, every other vertex has exactly one, and every
	// vertex is reachable from the root.
	Tree bool
	// Reachable counts the vertices reachable from the root, the root
	// included. It is -1 when a cycle kept the pass from finishing.
	Reachable int
}

// Shape derives acyclicity, tree-ness and the number of vertices reachable
// from root in one pass, where TopoSort, ReachableFrom and a degree scan
// would each walk the graph again (and sort what they return).
func (g *Graph) Shape(root string) Shape {
	rv, ok := g.Vertex(root)
	if !ok {
		_, err := g.TopoSort()
		return Shape{Acyclic: err == nil}
	}
	// Tree degrees: when every vertex has at most one parent and the root
	// none, a walk from the root meets each vertex at most once, so it
	// needs no visited set.
	treeDegrees := len(g.Pred(rv)) == 0
	for _, v := range g.order {
		if treeDegrees = treeDegrees && (v == rv || len(g.Pred(v)) == 1); !treeDegrees {
			break
		}
	}
	if treeDegrees {
		n := 0
		stack := []int32{rv}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n++
			lo, hi := g.out.row(cur)
			stack = append(stack, g.out.v[lo:hi]...)
		}
		// Vertices the walk missed have one parent each, all among
		// themselves: they close a cycle.
		all := n == len(g.order)
		return Shape{Acyclic: all, Tree: all, Reachable: n}
	}
	// Kahn's algorithm, carrying "reachable from root" along each edge: a
	// vertex leaves the queue after all its parents, so its flag is final.
	indeg := make([]int32, len(g.names))
	reached := make([]bool, len(g.names))
	reached[rv] = true
	queue := make([]int32, 0, len(g.order))
	for _, v := range g.order {
		if indeg[v] = int32(len(g.Pred(v))); indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	reachable := 0
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if reached[cur] {
			reachable++
		}
		lo, hi := g.out.row(cur)
		for _, c := range g.out.v[lo:hi] {
			reached[c] = reached[c] || reached[cur]
			if indeg[c]--; indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(queue) != len(g.order) {
		return Shape{Reachable: -1}
	}
	return Shape{Acyclic: true, Reachable: reachable}
}

// EachChild calls fn for every (child, label) pair of o in sorted child
// order.
func (g *Graph) EachChild(o string, fn func(child, label string)) {
	lo, hi := g.outRow(o)
	for i := lo; i < hi; i++ {
		fn(g.out.name[i], g.out.label[i])
	}
}

// Arc is one out-edge of a vertex as the successor table stores it: its
// label, the target's vertex number V, and Slot, the target's position in
// the source's row of successors in target order (Children, ChildNames),
// which is what the bitset view of an instance's child sets indexes
// (DESIGN §36).
type Arc struct {
	Label   string
	V, Slot int32
}

// Successors is the label-partitioned successor table of a graph: for every
// vertex its out-edges sorted by (label, target), so the edges carrying one
// label are a contiguous run in target order. It is what path evaluation
// reads; the graph builds it with its rows and shares it between callers,
// who must treat every slice it returns as read-only.
type Successors struct {
	g *Graph
	// arcs holds the successor rows reordered by label; a row with a single
	// label is in the order it already had.
	arcs []Arc
	// forest reports that no vertex has two parents, so distinct vertices
	// have disjoint successors and a level-by-level walk never meets a
	// vertex twice.
	forest bool
}

func newSuccessors(g *Graph) Successors {
	s := Successors{g: g, arcs: make([]Arc, len(g.out.v)), forest: true}
	for v := range g.names {
		lo, hi := g.out.row(int32(v))
		for i := lo; i < hi; i++ {
			s.arcs[i] = Arc{Label: g.out.label[i], V: g.out.v[i], Slot: i - lo}
		}
		// A stable sort by label keeps each label's run in target order.
		slices.SortStableFunc(s.arcs[lo:hi], func(a, b Arc) int { return cmp.Compare(a.Label, b.Label) })
	}
	for v := range g.names {
		if lo, hi := g.in.row(int32(v)); hi-lo > 1 {
			s.forest = false
			break
		}
	}
	return s
}

// Successors returns the graph's successor table.
func (g *Graph) Successors() *Successors { return &g.succ }

// Graph returns the graph the table was built from.
func (s *Successors) Graph() *Graph { return s.g }

// Forest reports whether every vertex has at most one parent.
func (s *Successors) Forest() bool { return s.forest }

// Out returns every out-edge of vertex v, sorted by (label, target).
func (s *Successors) Out(v int32) []Arc {
	lo, hi := s.g.out.row(v)
	return s.arcs[lo:hi:hi]
}

// Via returns the out-edges of vertex v labeled label, sorted by target.
func (s *Successors) Via(v int32, label string) []Arc {
	arcs := s.Out(v)
	lo := sort.Search(len(arcs), func(i int) bool { return arcs[i].Label >= label })
	hi := lo
	for hi < len(arcs) && arcs[hi].Label == label {
		hi++
	}
	return arcs[lo:hi]
}
