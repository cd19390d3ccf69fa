package pathexpr

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/graph"
	"pxml/internal/model"
)

// This file keeps the plan builder NewPlan replaced — map level sets filled
// through graph.EachChild, one sorted and deduplicated edge list — verbatim
// but for the ref prefix, as the reference the flat plan is held to
// (TestQuickIndexedPlanMatchesDirect, FuzzPlanDifferential).

func refMatchLabel(pattern, label model.Label) bool {
	return pattern == Wildcard || pattern == label
}

// refLevels returns the level sets of the expression over g: level 0 is
// {p.Root} (empty when g lacks it), and level i is the set of objects
// reachable from level i−1 via an edge labeled p.Labels[i−1]. In a DAG the
// same object may appear in several levels.
func refLevels(p Path, g *graph.Graph) []map[model.ObjectID]bool {
	levels := make([]map[model.ObjectID]bool, p.Len()+1)
	levels[0] = map[model.ObjectID]bool{}
	if g.HasNode(p.Root) {
		levels[0][p.Root] = true
	}
	for i, l := range p.Labels {
		next := map[model.ObjectID]bool{}
		for o := range levels[i] {
			g.EachChild(o, func(child, label string) {
				if refMatchLabel(l, label) {
					next[child] = true
				}
			})
		}
		levels[i+1] = next
	}
	return levels
}

// refPlan is the structural skeleton of an ancestor projection: per-level
// kept object sets and the kept edges.
type refPlan struct {
	Path Path
	// Keep[i] is the set of level-i objects on some complete match path.
	Keep []map[model.ObjectID]bool
	// Edges holds the kept edges.
	Edges []graph.Edge
}

func refNewPlan(g *graph.Graph, p Path, targets map[model.ObjectID]bool) refPlan {
	levels := refLevels(p, g)
	n := p.Len()
	keep := make([]map[model.ObjectID]bool, n+1)
	keep[n] = map[model.ObjectID]bool{}
	for o := range levels[n] {
		if targets == nil || targets[o] {
			keep[n][o] = true
		}
	}
	var edges []graph.Edge
	for i := n - 1; i >= 0; i-- {
		keep[i] = map[model.ObjectID]bool{}
		for o := range levels[i] {
			g.EachChild(o, func(child, label string) {
				if refMatchLabel(p.Labels[i], label) && keep[i+1][child] {
					keep[i][o] = true
					edges = append(edges, graph.Edge{From: o, To: child, Label: label})
				}
			})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	// Deduplicate edges (the same edge can be rediscovered when an object
	// occurs in several levels of a DAG).
	w := 0
	for i, e := range edges {
		if i == 0 || e != edges[w-1] {
			edges[w] = e
			w++
		}
	}
	return refPlan{Path: p, Keep: keep, Edges: edges[:w]}
}

// Kept returns the union of all kept level sets plus the expression root,
// in sorted order: the vertex set V′ of Definition 5.2.
func (pl refPlan) Kept() []model.ObjectID {
	all := map[model.ObjectID]bool{pl.Path.Root: true}
	for _, k := range pl.Keep {
		for o := range k {
			all[o] = true
		}
	}
	out := make([]model.ObjectID, 0, len(all))
	for o := range all {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

func (pl refPlan) IsEmpty() bool { return len(pl.Keep[len(pl.Keep)-1]) == 0 }

func (pl refPlan) Matched() []model.ObjectID {
	last := pl.Keep[len(pl.Keep)-1]
	out := make([]model.ObjectID, 0, len(last))
	for o := range last {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// levelIDs returns the plan's level-i objects as a set.
func levelIDs(pl Plan, i int) map[model.ObjectID]bool {
	ids := map[model.ObjectID]bool{}
	lo, hi := pl.Level(i)
	for _, nd := range pl.Nodes[lo:hi] {
		ids[nd.ID] = true
	}
	return ids
}

// planEdges returns the plan's kept edges the way the reference lists them:
// sorted by (From, To), an edge kept at several depths listed once.
func planEdges(pl Plan) []graph.Edge {
	seen := map[graph.Edge]bool{}
	var edges []graph.Edge
	for pos, nd := range pl.Nodes {
		for _, k := range pl.KidsOf(pos) {
			if e := (graph.Edge{From: nd.ID, To: pl.Nodes[k.Pos].ID, Label: k.Label}); !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	return edges
}

// planKept is refPlan.Kept for the flat plan.
func planKept(pl Plan) []model.ObjectID {
	all := map[model.ObjectID]bool{pl.Path.Root: true}
	for _, nd := range pl.Nodes {
		all[nd.ID] = true
	}
	out := make([]model.ObjectID, 0, len(all))
	for o := range all {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// checkPlan holds the flat plan of p over g to the reference — the same
// levels, the same deduplicated edge list, the same Matched and Kept — and
// to its own layout invariants. It returns "" when everything agrees.
func checkPlan(g *graph.Graph, p Path, targets map[model.ObjectID]bool) string {
	got, want := NewPlan(g, p, targets), refNewPlan(g, p, targets)
	if got.IsEmpty() != want.IsEmpty() {
		return "IsEmpty differs"
	}
	if !reflect.DeepEqual(got.Matched(), want.Matched()) {
		return "Matched differs"
	}
	if targets == nil && !reflect.DeepEqual(p.Targets(g), want.Matched()) {
		return "Targets differs"
	}
	if !reflect.DeepEqual(planKept(got), want.Kept()) {
		return "Kept differs"
	}
	if !reflect.DeepEqual(planEdges(got), want.Edges) {
		return "edges differ"
	}
	if got.IsEmpty() {
		// The reference keeps a dead-end prefix's level sets empty too.
		for i := range want.Keep {
			if len(want.Keep[i]) != 0 {
				return "reference keeps objects the empty plan lacks"
			}
		}
		return ""
	}
	for i := range want.Keep {
		lo, hi := got.Level(i)
		if ids := levelIDs(got, i); !reflect.DeepEqual(ids, want.Keep[i]) || len(ids) != hi-lo {
			return "level differs or repeats an object"
		}
		for pos := lo; pos < hi; pos++ {
			kids := got.KidsOf(pos)
			if (len(kids) == 0) != (i == p.Len()) {
				return "only matched nodes may be childless"
			}
			parent := got.Nodes[pos]
			if v, _ := g.Vertex(parent.ID); v != parent.V {
				return "node number is not the vertex's"
			}
			row := g.Children(parent.ID)
			for k, kid := range kids {
				nlo, nhi := got.Level(i + 1)
				if int(kid.Pos) < nlo || int(kid.Pos) >= nhi {
					return "kid position is not one level down"
				}
				child := got.Nodes[kid.Pos].ID
				if int(kid.Slot) >= len(row) || row[kid.Slot] != child {
					return "kid slot does not name the child in the parent's row"
				}
				if l, _ := g.Label(parent.ID, child); l != kid.Label {
					return "kid label is not the edge's"
				}
				if k > 0 && (got.Nodes[kids[k-1].Pos].ID >= child || kids[k-1].Slot >= kid.Slot) {
					return "kids not in ascending id"
				}
			}
		}
	}
	return ""
}

// randomPlanCase draws a path over pi's graph from a label alphabet with a
// wildcard, a repeated label and a label no edge carries, sometimes under a
// root the graph lacks, and a random target restriction half the time.
func randomPlanCase(r *rand.Rand, pi *core.ProbInstance) (Path, map[model.ObjectID]bool) {
	labels := []string{"a", "b", "a", Wildcard, "zz"}
	p := Path{Root: pi.Root()}
	if r.Intn(10) == 0 {
		p.Root = "nowhere"
	}
	for i := r.Intn(4); i > 0; i-- {
		p.Labels = append(p.Labels, labels[r.Intn(len(labels))])
	}
	var targets map[model.ObjectID]bool
	if r.Intn(2) == 0 {
		targets = map[model.ObjectID]bool{}
		objs := pi.Objects()
		for i := r.Intn(4); i > 0; i-- {
			targets[objs[r.Intn(len(objs))]] = true
		}
	}
	return p, targets
}

// TestQuickIndexedPlanMatchesDirect: the flat plan agrees with the
// reference on random trees and DAGs, random paths and random targets.
func TestQuickIndexedPlanMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomDAG(r)
		if seed%2 == 0 {
			pi = fixtures.RandomTree(r)
		}
		p, targets := randomPlanCase(r, pi)
		if msg := checkPlan(pi.WeakInstance.Graph(), p, targets); msg != "" {
			t.Logf("seed %d, %s, targets %v: %s", seed, p, targets, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}
