package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// refGraph is Graph as it was before the compressed rows (DESIGN §31): a
// map of maps that only grows. It is the reference FuzzGraphDifferential
// holds Graph to, and what the tests build their graphs with (csr).
type refGraph struct {
	nodes map[string]struct{}
	// out maps a source vertex to its successors and the edge label.
	out map[string]map[string]string
	// in maps a target vertex to the set of its predecessors.
	in map[string]map[string]struct{}
}

// newRef returns an empty graph.
func newRef() *refGraph { return newRefSized(0) }

// newRefSized returns an empty graph with room for the given number of
// vertices.
func newRefSized(nodes int) *refGraph {
	return &refGraph{
		nodes: make(map[string]struct{}, nodes),
		out:   make(map[string]map[string]string, nodes/2),
		in:    make(map[string]map[string]struct{}, nodes),
	}
}

// AddNode inserts a vertex. Adding an existing vertex is a no-op.
func (g *refGraph) AddNode(id string) {
	g.nodes[id] = struct{}{}
}

// HasNode reports whether the vertex exists.
func (g *refGraph) HasNode(id string) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddEdge inserts the edge from → to with the given label, creating the
// endpoints if necessary. It returns an error if an edge between the pair
// already exists with a different label; re-adding an identical edge is a
// no-op. This enforces the model's single-label-per-edge rule.
func (g *refGraph) AddEdge(from, to, label string) error {
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
	if g.in[to] == nil {
		g.in[to] = make(map[string]struct{})
	}
	g.in[to][from] = struct{}{}
	return nil
}

// Label returns the label of the edge from → to. The boolean result is
// false when the edge does not exist.
func (g *refGraph) Label(from, to string) (string, bool) {
	l, ok := g.out[from][to]
	return l, ok
}

// NumEdges returns the number of edges.
func (g *refGraph) NumEdges() int {
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

// Nodes returns all vertices in sorted order.
func (g *refGraph) Nodes() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Edges returns all edges sorted by (From, To).
func (g *refGraph) Edges() []Edge {
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
func (g *refGraph) Children(o string) []string {
	m := g.out[o]
	cs := make([]string, 0, len(m))
	for c := range m {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	return cs
}

// Parents returns parents(o), the predecessors of o, in sorted order
// (Def 3.2).
func (g *refGraph) Parents(o string) []string {
	m := g.in[o]
	ps := make([]string, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// LCh returns lch(o, l): the children of o reached via edges labeled l, in
// sorted order (Def 3.2).
func (g *refGraph) LCh(o, label string) []string {
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
func (g *refGraph) IsLeaf(o string) bool { return len(g.out[o]) == 0 }

// Descendants returns des(o): every vertex reachable from o by a non-empty
// directed path, in sorted order (Def 3.2).
func (g *refGraph) Descendants(o string) []string {
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
func (g *refGraph) ReachableFrom(root string) []string {
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
func (g *refGraph) TopoSort() ([]string, error) {
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

// Shape derives acyclicity, tree-ness and the number of vertices reachable
// from root in one pass, where TopoSort, ReachableFrom and a degree scan
// would each walk the graph again (and sort what they return).
func (g *refGraph) Shape(root string) Shape {
	if !g.HasNode(root) {
		_, err := g.TopoSort()
		return Shape{Acyclic: err == nil}
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
func (g *refGraph) Clone() *refGraph {
	c := newRef()
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
func (g *refGraph) EachChild(o string, fn func(child, label string)) {
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

// csr builds the Graph with g's vertices and edges, numbering the vertices
// in an order of its own that is not their name order.
func (g *refGraph) csr() *Graph {
	ids := make(map[string]int32, len(g.nodes))
	var names []string
	for _, id := range g.Nodes() {
		// Odd positions first, so numbers and name order disagree.
		if len(names)%2 == 1 {
			names = append(names, id)
		} else {
			names = append([]string{id}, names...)
		}
	}
	for i, id := range names {
		ids[id] = int32(i)
	}
	order := make([]int32, len(names))
	rank := make([]int32, len(names))
	for k, id := range g.Nodes() {
		order[k], rank[ids[id]] = ids[id], int32(k)
	}
	var links []Link
	for from, m := range g.out {
		for to, l := range m {
			links = append(links, Link{From: ids[from], To: ids[to], Label: l})
		}
	}
	return Build(ids, names, order, rank, links)
}

// arcs returns v's out-edges sorted by (label, target), which is what
// Successors.Out answers, each target numbered as in the graph csr built
// and placed at its position among v's children in name order.
func (g *refGraph) arcs(v string, csr *Graph) []Arc {
	var arcs []Arc
	kids := g.Children(v)
	for to, l := range g.out[v] {
		n, _ := csr.Vertex(to)
		arcs = append(arcs, Arc{Label: l, V: n, Slot: int32(slices.Index(kids, to))})
	}
	// Slots are in target order.
	slices.SortFunc(arcs, func(a, b Arc) int {
		if c := cmp.Compare(a.Label, b.Label); c != 0 {
			return c
		}
		return cmp.Compare(a.Slot, b.Slot)
	})
	return arcs
}

// FuzzGraphDifferential holds the compressed rows of Graph to the map of
// maps they replaced (refGraph) on graphs of up to 12 vertices and any
// edges, self-loops and cycles included: Nodes, Edges, Children, Parents,
// Label, Descendants, ReachableFrom, TopoSort (order or cycle), Shape from
// every vertex and from none, and the successor table.
func FuzzGraphDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 3, 2, 3})
	f.Add([]byte{5, 0x11, 0x12, 0x23, 0x31, 0x24, 0x45})
	f.Add([]byte{0, 0, 0x01, 0x10, 0x32, 0x42, 0x52, 0x61, 0x71, 0x82, 0x93, 0xa3, 0xb0})
	f.Add([]byte{3, 0x01, 0x02, 0x03, 0x14, 0x25, 0x36, 0x47, 0x57, 0x67, 0x78})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := func(b byte) string { return fmt.Sprintf("v%x", b%12) }
		ref := newRef()
		for v := byte(0); v < data[0]%12; v++ {
			ref.AddNode(name(v * 5))
		}
		for _, b := range data[1:] {
			// A pair already labeled otherwise is refused, as in the model.
			_ = ref.AddEdge(name(b>>4), name(b&15), string(rune('a'+b%3)))
		}
		g := ref.csr()
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("%s = %v, reference %v (edges %v)", what, got, want, ref.Edges())
		}
		if got, want := g.Nodes(), ref.Nodes(); !slices.Equal(got, want) {
			fail("Nodes", got, want)
		}
		if got, want := g.Edges(), ref.Edges(); !slices.Equal(got, want) {
			fail("Edges", got, want)
		}
		order, err := g.TopoSort()
		refOrder, refErr := ref.TopoSort()
		if (err == nil) != (refErr == nil) || !slices.Equal(order, refOrder) {
			fail("TopoSort", fmt.Sprint(order, err), fmt.Sprint(refOrder, refErr))
		}
		if got, want := g.Shape("nowhere"), ref.Shape("nowhere"); got != want {
			fail("Shape(nowhere)", got, want)
		}
		for b := byte(0); b < 12; b++ {
			v := name(b)
			if got, want := g.Shape(v), ref.Shape(v); got != want {
				fail("Shape("+v+")", got, want)
			}
			if got, want := g.Children(v), ref.Children(v); !slices.Equal(got, want) {
				fail("Children("+v+")", got, want)
			}
			if got, want := g.Parents(v), ref.Parents(v); !slices.Equal(got, want) {
				fail("Parents("+v+")", got, want)
			}
			if got, want := g.Descendants(v), ref.Descendants(v); !slices.Equal(got, want) {
				fail("Descendants("+v+")", got, want)
			}
			if got, want := g.ReachableFrom(v), ref.ReachableFrom(v); !slices.Equal(got, want) {
				fail("ReachableFrom("+v+")", got, want)
			}
			if vn, ok := g.Vertex(v); ok {
				if got, want := g.Successors().Out(vn), ref.arcs(v, g); !slices.Equal(got, want) {
					fail("Out("+v+")", got, want)
				}
				if got, want := g.ChildNames(vn), ref.Children(v); !slices.Equal(got, want) {
					fail("ChildNames("+v+")", got, want)
				}
				for c := byte(0); c < 12; c++ {
					cn, cok := g.Vertex(name(c))
					if !cok {
						continue
					}
					slot, found := g.Slot(vn, cn)
					at := slices.Index(ref.Children(v), name(c))
					if found != (at >= 0) || found && slot != int32(at) {
						fail("Slot("+v+","+name(c)+")", slot, at)
					}
				}
			}
			for c := byte(0); c < 12; c++ {
				gl, gok := g.Label(v, name(c))
				rl, rok := ref.Label(v, name(c))
				if gl != rl || gok != rok {
					fail("Label("+v+","+name(c)+")", gl, rl)
				}
			}
		}
		forest := true
		for _, v := range ref.Nodes() {
			forest = forest && len(ref.Parents(v)) <= 1
		}
		if got := g.Successors().Forest(); got != forest {
			fail("Forest", got, forest)
		}
	})
}
