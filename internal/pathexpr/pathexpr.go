// Package pathexpr implements the path expressions of Definition 5.1 —
// p = r.l₁.l₂…lₙ, an object id followed by a sequence of edge labels — and
// the structural graph operations built on them: locating the objects an
// expression denotes, and extracting the "ancestor projection" subgraph of
// Definition 5.2 (the matched objects plus every object and edge on a
// root-to-match path).
//
// As an extension beyond the paper, the label wildcard "*" matches any edge
// label; everything else follows the paper's single-path-expression form.
package pathexpr

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"pxml/internal/graph"
	"pxml/internal/model"
)

// Wildcard is the label that matches any edge label (extension).
const Wildcard = "*"

// Path is a parsed path expression: an object identifier (the root of the
// instance the expression applies to) followed by an edge-label sequence.
type Path struct {
	Root   model.ObjectID
	Labels []model.Label
}

// Parse parses "r.l1.l2…ln". The first segment is the root object id; the
// rest are edge labels. Segments must be non-empty. A bare object id parses
// to a Path with no labels (which denotes just that object).
func Parse(s string) (Path, error) {
	if s == "" {
		return Path{}, fmt.Errorf("pathexpr: empty path expression")
	}
	segs := strings.Split(s, ".")
	for i, seg := range segs {
		if seg == "" {
			return Path{}, fmt.Errorf("pathexpr: empty segment %d in %q", i, s)
		}
	}
	p := Path{Root: segs[0]}
	if len(segs) > 1 {
		p.Labels = append(p.Labels, segs[1:]...)
	}
	return p, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the path in the paper's dotted notation.
func (p Path) String() string {
	if len(p.Labels) == 0 {
		return p.Root
	}
	return p.Root + "." + strings.Join(p.Labels, ".")
}

// Len returns the number of edge labels in the expression.
func (p Path) Len() int { return len(p.Labels) }

// Targets returns the objects the expression denotes over g — the set
// {o | o ∈ p} of Definition 5.1 — in sorted order.
func (p Path) Targets(g *graph.Graph) []model.ObjectID {
	return NewPlan(g, p, nil).Matched()
}

// Matches reports whether o ∈ p over g.
func (p Path) Matches(g *graph.Graph, o model.ObjectID) bool {
	return !NewPlan(g, p, map[model.ObjectID]bool{o: true}).IsEmpty()
}

// RootChain decides o ∈ p by o's parent chain, in O(p.Len()) and without a
// plan: where every object on the way has one parent, o ∈ p iff the p.Len()
// edges above o carry p's labels (a wildcard matches any) and the chain
// ends at p.Root (Section 6.2: on a tree a point query reduces to that
// chain). RootChain appends the chain o … p.Root to dst and returns it when
// o ∈ p, and returns nil when o ∉ p; ok is true in both cases. When an
// object on the way has several parents the chain alone cannot decide: ok
// is false and the chain returned ends at that object, for the caller to
// name or to fall back on NewPlan.
func RootChain(dst []model.ObjectID, g *graph.Graph, p Path, o model.ObjectID) (chain []model.ObjectID, ok bool) {
	v, found := g.Vertex(o)
	if !found {
		return nil, true
	}
	chain = append(dst, o)
	for level := p.Len(); level > 0; level-- {
		ps := g.Pred(v)
		if len(ps) > 1 {
			return chain, false
		}
		if len(ps) == 0 {
			return nil, true
		}
		if want := p.Labels[level-1]; want != Wildcard {
			if l, _ := g.EdgeLabel(ps[0], v); l != want {
				return nil, true
			}
		}
		v = ps[0]
		chain = append(chain, g.Name(v))
	}
	if g.Name(v) != p.Root {
		return nil, true
	}
	return chain, true
}

// Plan is the located skeleton of an ancestor projection (Definition 5.2):
// the objects and edges lying on a complete root-to-match path, as flat
// slices.
//
// Nodes holds the kept objects level by level: level 0 is the root, level
// Path.Len() the matched objects. A node's index in Nodes is its position,
// dense from 0, which consumers use to index their own per-node state. Within
// a level every object occurs once, in the order the walk from the root meets
// it (its first parent's position, then its id); an object a DAG reaches at
// several depths has one node per depth.
//
// Kids holds the kept edges grouped by parent: a node's kept children are one
// contiguous run (KidsOf) in ascending child id, each with its edge label,
// the child's position, which is always greater than the parent's, and its
// slot in the parent's row of successors.
type Plan struct {
	Path  Path
	Nodes []Node
	Kids  []Kid
	// level[i] is where level i starts in Nodes and level[Path.Len()+1] ends
	// the last one; nil for the empty plan.
	level []int32
}

// Node is one kept object at one depth.
type Node struct {
	ID model.ObjectID
	// V is the object's vertex number in the graph the plan was read from,
	// which an instance's own tables share (DESIGN §31).
	V             int32
	kids, kidsEnd int32
}

// Kid is one kept edge, seen from its parent. The child is Plan.Nodes[Pos].
type Kid struct {
	Label model.Label
	// Pos is the child's position in Plan.Nodes.
	Pos int32
	// Slot is the child's position in its parent's row of successors in id
	// order (graph.Arc.Slot), the bit a child set of the parent's OPF
	// holds it at (Members).
	Slot int32
}

// NewPlan computes the ancestor-projection plan of p over g, read through
// g's successor table (NewIndex), restricted to the target set targets (pass
// nil to keep every matched object — the plain ancestor projection; pass a
// subset for point queries, which keep a single object and its path
// ancestors, Section 6.2). Only objects and edges on a complete root-to-match
// path are kept, so the plan is empty exactly when nothing (targeted) matches.
func NewPlan(g *graph.Graph, p Path, targets map[model.ObjectID]bool) Plan {
	pl := Plan{Path: p}
	root, ok := g.Vertex(p.Root)
	if !ok {
		return pl
	}
	idx := NewIndex(g)
	n := p.Len()

	// Forward: every object the label sequence reaches, level by level;
	// reached[start[i]:start[i+1]] is level i.
	wk := walkPool.Get().(*walk)
	reached := append(wk.reached[:0], candidate{v: root})
	below := wk.below[:0]
	defer func() { wk.release(reached, below) }()
	start := make([]int32, n+2)
	start[1] = 1
	// In a forest no object is reached twice. Elsewhere seen finds the
	// level's earlier occurrence; nil, it never does.
	var seen map[int32]int32
	if !idx.Forest() {
		if wk.seen == nil {
			wk.seen = make(map[int32]int32)
		}
		seen = wk.seen
	}
	for i, l := range p.Labels {
		clear(seen)
		for c := start[i]; c < start[i+1]; c++ {
			arcs := idx.Out(reached[c].v)
			if l != Wildcard {
				arcs = idx.Via(reached[c].v, l)
			}
			reached[c].arcs, reached[c].first = arcs, int32(len(below))
			for _, a := range arcs {
				at, again := seen[a.V]
				if !again {
					at = int32(len(reached))
					reached = append(reached, candidate{v: a.V})
					if seen != nil {
						seen[a.V] = at
					}
				}
				below = append(below, at)
			}
		}
		start[i+2] = int32(len(reached))
	}

	// Backward: keep what lies on a complete path to a (targeted) match.
	nodes, kids := 0, 0
	for c := start[n]; c < start[n+1]; c++ {
		reached[c].pos = -1
		if targets == nil || targets[g.Name(reached[c].v)] {
			reached[c].pos = 0
			nodes++
		}
	}
	for i := n - 1; i >= 0; i-- {
		for c := start[i]; c < start[i+1]; c++ {
			r := &reached[c]
			r.pos = -1
			for _, at := range below[r.first : int(r.first)+len(r.arcs)] {
				if reached[at].pos >= 0 {
					r.pos = 0
					kids++
				}
			}
			if r.pos == 0 {
				nodes++
			}
		}
	}
	if reached[0].pos < 0 {
		return pl
	}

	// Emit the kept objects in reached order. start becomes the plan's level
	// table in place: level i's bounds are read before slot i is rewritten,
	// and no level starts later in Nodes than it did in reached.
	next := int32(0)
	for c := range reached {
		if reached[c].pos >= 0 {
			reached[c].pos = next
			next++
		}
	}
	pl.Nodes = make([]Node, 0, nodes)
	pl.Kids = make([]Kid, 0, kids)
	for i := 0; i <= n; i++ {
		lo, hi := start[i], start[i+1]
		start[i] = int32(len(pl.Nodes))
		for _, r := range reached[lo:hi] {
			if r.pos < 0 {
				continue
			}
			nd := Node{ID: g.Name(r.v), V: r.v, kids: int32(len(pl.Kids))}
			for k, a := range r.arcs {
				if at := reached[below[int(r.first)+k]].pos; at >= 0 {
					pl.Kids = append(pl.Kids, Kid{Label: a.Label, Pos: at, Slot: a.Slot})
				}
			}
			nd.kidsEnd = int32(len(pl.Kids))
			if i < n && p.Labels[i] == Wildcard {
				// A wildcard step follows several label runs, each in id
				// order; the node's run must be in id order as a whole,
				// which is slot order.
				slices.SortFunc(pl.Kids[nd.kids:nd.kidsEnd], func(a, b Kid) int { return cmp.Compare(a.Slot, b.Slot) })
			}
			pl.Nodes = append(pl.Nodes, nd)
		}
	}
	start[n+1] = int32(len(pl.Nodes))
	pl.level = start
	return pl
}

// candidate is an object the forward walk reached at one depth.
type candidate struct {
	v    int32       // its vertex number
	arcs []graph.Arc // the edges the next step may follow
	// below[first+k] is where arcs[k].V sits in reached.
	first int32
	// pos is the object's position in the plan, -1 when it is not kept.
	pos int32
}

// walk is NewPlan's scratch: the candidates, where each arc's target sits
// among them, and (off a forest) the map that finds a level's earlier
// occurrence of an object. None of it escapes into a plan, so one call
// hands it to the next through walkPool (DESIGN §25).
type walk struct {
	reached []candidate
	below   []int32
	seen    map[int32]int32
}

var walkPool = sync.Pool{New: func() any { return new(walk) }}

// maxPooledWalk is the most candidates a walk may hold room for and still
// be pooled: a walk over a huge instance is left to the collector rather
// than kept resident behind small ones.
const maxPooledWalk = 1 << 13

// release returns wk to walkPool with the slices a call grew it to, holding
// no reference into any graph or instance, or drops it when it grew past
// maxPooledWalk. Every candidate of a pooled walk is zero.
func (wk *walk) release(reached []candidate, below []int32) {
	if cap(reached) > maxPooledWalk {
		return
	}
	clear(reached)
	clear(wk.seen)
	wk.reached, wk.below = reached, below
	walkPool.Put(wk)
}

// IsEmpty reports whether no object matched the expression (the projection
// result is the bare root).
func (pl Plan) IsEmpty() bool { return len(pl.Nodes) == 0 }

// Level returns the positions [lo, hi) of the level-i nodes.
func (pl Plan) Level(i int) (lo, hi int) {
	if pl.level == nil {
		return 0, 0
	}
	return int(pl.level[i]), int(pl.level[i+1])
}

// KidsOf returns the kept children of the node at pos, in ascending id.
func (pl Plan) KidsOf(pos int) []Kid {
	nd := pl.Nodes[pos]
	return pl.Kids[nd.kids:nd.kidsEnd]
}

// Matched returns the kept matched objects (deepest level), sorted.
func (pl Plan) Matched() []model.ObjectID {
	lo, hi := pl.Level(pl.Path.Len())
	out := make([]model.ObjectID, 0, hi-lo)
	for _, nd := range pl.Nodes[lo:hi] {
		out = append(out, nd.ID)
	}
	slices.Sort(out)
	return out
}

// Members appends to dst, for every kept child in kids that is a member of
// the child set bits, its index in kids, in ascending order. bits is the set
// as the bitset view of an instance's OPFs holds it (core.ChildSets, DESIGN
// §36): bit s of word s/64 is the parent's s-th child in id order, so a kid
// is a member when the bit at its Slot is set. Every reader of a prob.OPF
// over a plan uses it to find which kept children a child set contains.
func Members(dst []int32, kids []Kid, bits []uint64) []int32 {
	for j, k := range kids {
		if bits[k.Slot>>6]>>(k.Slot&63)&1 != 0 {
			dst = append(dst, int32(j))
		}
	}
	return dst
}

// ProjectAncestors applies the ancestor projection Λ_p of Definition 5.2 to
// a deterministic semistructured instance: the result contains the matched
// objects, their path ancestors, the root, and exactly the edges on
// complete match paths, with labels preserved. Types and values of kept
// typed leaves are preserved; matched objects whose children are projected
// away become untyped leaves, exactly as in the paper's Figure 4.
func ProjectAncestors(s *model.Instance, p Path) *model.Instance {
	out := model.NewInstance(s.Root())
	for _, t := range s.Types() {
		// Error impossible: types were valid in the source instance.
		_ = out.RegisterType(t)
	}
	if p.Root != s.Root() {
		return out
	}
	pl := NewPlan(s.Graph(), p, nil)
	for pos, nd := range pl.Nodes {
		for _, k := range pl.KidsOf(pos) {
			// Error impossible: source edges are uniquely labeled.
			_ = out.AddEdge(nd.ID, pl.Nodes[k.Pos].ID, k.Label)
		}
	}
	// Preserve type/value for kept objects that remain leaves: a typed leaf
	// of the source keeps its assignment; a source non-leaf that became a
	// leaf here has no type to carry.
	for _, nd := range pl.Nodes {
		o := nd.ID
		if !out.IsLeaf(o) || !s.IsLeaf(o) {
			continue
		}
		if t, ok := s.TypeOf(o); ok {
			if v, okV := s.ValueOf(o); okV {
				_ = out.SetLeaf(o, t.Name, v)
			}
		}
	}
	return out
}
