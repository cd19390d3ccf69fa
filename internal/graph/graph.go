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
	"sync/atomic"
)

// Graph is an edge-labeled directed graph that only grows: vertices and
// edges are added, never removed. The zero value is not usable; create
// instances with New.
type Graph struct {
	nodes map[string]struct{}
	// out maps a source vertex to its successors and the edge label.
	out map[string]map[string]string
	// in maps a target vertex to the set of its predecessors.
	in map[string]map[string]struct{}
	// succ memoizes Successors until the next edge is added.
	succ atomic.Pointer[Successors]
}

// New returns an empty graph.
func New() *Graph { return NewSized(0) }

// NewSized returns an empty graph with room for the given number of
// vertices, for builders that know it upfront.
func NewSized(nodes int) *Graph {
	return &Graph{
		nodes: make(map[string]struct{}, nodes),
		out:   make(map[string]map[string]string, nodes/2),
		in:    make(map[string]map[string]struct{}, nodes),
	}
}

// AddNode inserts a vertex. Adding an existing vertex is a no-op.
func (g *Graph) AddNode(id string) {
	g.nodes[id] = struct{}{}
}

// HasNode reports whether the vertex exists.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddEdge inserts the edge from → to with the given label, creating the
// endpoints if necessary. It returns an error if an edge between the pair
// already exists with a different label; re-adding an identical edge is a
// no-op. This enforces the model's single-label-per-edge rule.
func (g *Graph) AddEdge(from, to, label string) error {
	if cur, ok := g.out[from][to]; ok {
		if cur == label {
			return nil
		}
		return fmt.Errorf("graph: edge (%s,%s) already labeled %q, cannot relabel to %q", from, to, cur, label)
	}
	g.AddNode(from)
	g.AddNode(to)
	if g.out[from] == nil {
		g.out[from] = make(map[string]string)
	}
	g.out[from][to] = label
	if g.succ.Load() != nil {
		g.succ.Store(nil)
	}
	if g.in[to] == nil {
		g.in[to] = make(map[string]struct{})
	}
	g.in[to][from] = struct{}{}
	return nil
}

// HasEdge reports whether the edge from → to exists.
func (g *Graph) HasEdge(from, to string) bool {
	_, ok := g.out[from][to]
	return ok
}

// Label returns the label of the edge from → to. The boolean result is
// false when the edge does not exist.
func (g *Graph) Label(from, to string) (string, bool) {
	l, ok := g.out[from][to]
	return l, ok
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

// Nodes returns all vertices in sorted order.
func (g *Graph) Nodes() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Edge is a labeled directed edge.
type Edge struct {
	From, To, Label string
}

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for from, m := range g.out {
		for to, l := range m {
			es = append(es, Edge{From: from, To: to, Label: l})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}

// Children returns C(o), the successors of o, in sorted order (Def 3.2).
func (g *Graph) Children(o string) []string {
	m := g.out[o]
	cs := make([]string, 0, len(m))
	for c := range m {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	return cs
}

// OutDegree returns the number of children of o.
func (g *Graph) OutDegree(o string) int { return len(g.out[o]) }

// InDegree returns the number of parents of o.
func (g *Graph) InDegree(o string) int { return len(g.in[o]) }

// Parents returns parents(o), the predecessors of o, in sorted order
// (Def 3.2).
func (g *Graph) Parents(o string) []string {
	m := g.in[o]
	ps := make([]string, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// EachParent calls fn for every parent of o in sorted order. It avoids the
// allocation of Parents where o has at most one, which is every vertex of a
// tree.
func (g *Graph) EachParent(o string, fn func(parent string)) {
	m := g.in[o]
	if len(m) > 1 {
		for _, p := range g.Parents(o) {
			fn(p)
		}
		return
	}
	for p := range m {
		fn(p)
	}
}

// LCh returns lch(o, l): the children of o reached via edges labeled l, in
// sorted order (Def 3.2).
func (g *Graph) LCh(o, label string) []string {
	var cs []string
	for c, l := range g.out[o] {
		if l == label {
			cs = append(cs, c)
		}
	}
	sort.Strings(cs)
	return cs
}

// IsLeaf reports whether o has no children (Def 3.2).
func (g *Graph) IsLeaf(o string) bool { return len(g.out[o]) == 0 }

// Descendants returns des(o): every vertex reachable from o by a non-empty
// directed path, in sorted order (Def 3.2).
func (g *Graph) Descendants(o string) []string {
	seen := make(map[string]bool)
	var stack []string
	for c := range g.out[o] {
		stack = append(stack, c)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for c := range g.out[cur] {
			if !seen[c] {
				stack = append(stack, c)
			}
		}
	}
	ds := make([]string, 0, len(seen))
	for id := range seen {
		ds = append(ds, id)
	}
	sort.Strings(ds)
	return ds
}

// ReachableFrom returns the set of vertices reachable from root, including
// root itself, in sorted order.
func (g *Graph) ReachableFrom(root string) []string {
	if !g.HasNode(root) {
		return nil
	}
	seen := map[string]bool{root: true}
	stack := []string{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range g.out[cur] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	rs := make([]string, 0, len(seen))
	for id := range seen {
		rs = append(rs, id)
	}
	sort.Strings(rs)
	return rs
}

// TopoSort returns a topological order of all vertices. It returns an error
// naming a vertex on a cycle if the graph is cyclic.
func (g *Graph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	for id := range g.nodes {
		indeg[id] = len(g.in[id])
	}
	var queue []string
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	sort.Strings(queue)
	order := make([]string, 0, len(g.nodes))
	for len(queue) > 0 {
		// Pop the smallest id to keep the order deterministic.
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		var freed []string
		for c := range g.out[cur] {
			indeg[c]--
			if indeg[c] == 0 {
				freed = append(freed, c)
			}
		}
		sort.Strings(freed)
		queue = mergeSorted(queue, freed)
	}
	if len(order) != len(g.nodes) {
		for id, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("graph: cycle detected through vertex %q", id)
			}
		}
	}
	return order, nil
}

// mergeSorted merges two ascending string slices into one ascending slice.
func mergeSorted(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// IsAcyclic reports whether the graph contains no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
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
// from root in one pass, where IsAcyclic, ReachableFrom and a degree scan
// would each walk the graph again (and sort what they return).
func (g *Graph) Shape(root string) Shape {
	if !g.HasNode(root) {
		return Shape{Acyclic: g.IsAcyclic()}
	}
	// Tree degrees: when every vertex has at most one parent and the root
	// none, a walk from the root meets each vertex at most once, so it
	// needs no visited set.
	treeDegrees := len(g.in[root]) == 0
	if treeDegrees {
		for id := range g.nodes {
			if id != root && len(g.in[id]) != 1 {
				treeDegrees = false
				break
			}
		}
	}
	if treeDegrees {
		n := 0
		stack := []string{root}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n++
			for c := range g.out[cur] {
				stack = append(stack, c)
			}
		}
		// Vertices the walk missed have one parent each, all among
		// themselves: they close a cycle.
		all := n == len(g.nodes)
		return Shape{Acyclic: all, Tree: all, Reachable: n}
	}
	// Kahn's algorithm, carrying "reachable from root" along each edge: a
	// vertex leaves the queue after all its parents, so its flag is final.
	type mark struct {
		indeg   int
		reached bool
	}
	marks := make(map[string]mark, len(g.nodes))
	queue := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		d := len(g.in[id])
		marks[id] = mark{indeg: d, reached: id == root}
		if d == 0 {
			queue = append(queue, id)
		}
	}
	reachable := 0
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		reached := marks[cur].reached
		if reached {
			reachable++
		}
		for c := range g.out[cur] {
			m := marks[c]
			m.indeg--
			m.reached = m.reached || reached
			marks[c] = m
			if m.indeg == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(queue) != len(g.nodes) {
		return Shape{Reachable: -1}
	}
	return Shape{Acyclic: true, Reachable: reachable}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for id := range g.nodes {
		c.AddNode(id)
	}
	for from, m := range g.out {
		for to, l := range m {
			// Error impossible: the source graph has no duplicate pairs.
			_ = c.AddEdge(from, to, l)
		}
	}
	return c
}

// EachChild calls fn for every (child, label) pair of o in sorted child
// order. Like Children it collects and sorts o's successors on every call;
// what it saves is the label lookup per child. Path evaluation, which needs
// neither per call, reads Successors.
func (g *Graph) EachChild(o string, fn func(child, label string)) {
	m := g.out[o]
	if len(m) == 0 {
		return
	}
	cs := make([]string, 0, len(m))
	for c := range m {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	for _, c := range cs {
		fn(c, m[c])
	}
}

// Arc is one out-edge of a vertex as the successor table stores it.
type Arc struct {
	To, Label string
}

// Successors is the label-partitioned successor table of a graph: for every
// vertex its out-edges sorted by (label, target), so the edges carrying one
// label are a contiguous run in target order. It is what path evaluation
// reads; the graph builds it once (Graph.Successors) and shares it between
// callers, who must treat every slice it returns as read-only.
type Successors struct {
	g *Graph
	// out[v] is carved from one array holding every edge.
	out map[string][]Arc
	// forest reports that no vertex has two parents, so distinct vertices
	// have disjoint successors and a level-by-level walk never meets a
	// vertex twice.
	forest bool
}

// Successors returns the graph's successor table, building it on first use
// after the last AddEdge. Concurrent first readers may each build it; the
// tables are equal and one of them stays.
func (g *Graph) Successors() *Successors {
	if s := g.succ.Load(); s != nil {
		return s
	}
	s := &Successors{g: g, out: make(map[string][]Arc, len(g.out)), forest: true}
	arcs := make([]Arc, 0, g.NumEdges())
	for from, m := range g.out {
		start := len(arcs)
		for to, l := range m {
			arcs = append(arcs, Arc{To: to, Label: l})
		}
		run := arcs[start:len(arcs):len(arcs)]
		slices.SortFunc(run, func(a, b Arc) int {
			if c := cmp.Compare(a.Label, b.Label); c != 0 {
				return c
			}
			return cmp.Compare(a.To, b.To)
		})
		s.out[from] = run
	}
	for _, ps := range g.in {
		if len(ps) > 1 {
			s.forest = false
			break
		}
	}
	g.succ.Store(s)
	return s
}

// Graph returns the graph the table was built from.
func (s *Successors) Graph() *Graph { return s.g }

// Forest reports whether every vertex has at most one parent.
func (s *Successors) Forest() bool { return s.forest }

// Out returns every out-edge of v, sorted by (label, target).
func (s *Successors) Out(v string) []Arc { return s.out[v] }

// Via returns the out-edges of v labeled label, sorted by target.
func (s *Successors) Via(v, label string) []Arc {
	arcs := s.out[v]
	lo := sort.Search(len(arcs), func(i int) bool { return arcs[i].Label >= label })
	hi := lo
	for hi < len(arcs) && arcs[hi].Label == label {
		hi++
	}
	return arcs[lo:hi]
}
