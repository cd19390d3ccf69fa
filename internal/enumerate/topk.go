package enumerate

import (
	"container/heap"
	"context"
	"fmt"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/sets"
)

// topkChoice is one resolved object in a search state, linked to the
// previous choices so states share structure.
type topkChoice struct {
	parent *topkChoice
	object model.ObjectID
	// set is the chosen child set for non-leaves (nil for leaves).
	set sets.Set
	// value is the chosen value for typed leaves.
	value model.Value
	leaf  bool
}

// topkState is a partial assignment: objects before index next (in
// topological order) are resolved; p is the product of the chosen factors.
type topkState struct {
	next int
	p    float64
	last *topkChoice
}

// topkHeap is a max-heap of states by probability.
type topkHeap []*topkState

func (h topkHeap) Len() int           { return len(h) }
func (h topkHeap) Less(i, j int) bool { return h[i].p > h[j].p }
func (h topkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)        { *h = append(*h, x.(*topkState)) }
func (h *topkHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}

// TopK returns the k most probable compatible instances of a probabilistic
// instance without enumerating Domain(I): a best-first (uniform-cost)
// search over partial choice assignments in topological order. Because
// every unresolved local factor is ≤ 1, a partial assignment's probability
// upper-bounds all of its completions, so the first k completed states
// popped from the max-heap are exactly the k most probable worlds — the
// answer to "what does this data most likely look like?" on instances far
// too large for Enumerate.
//
// maxExpansions bounds the search (≤ 0 for a default of ~1M pops); the
// search typically needs O(k · |V|) expansions but can degenerate when the
// local distributions are near-uniform. Under ctx's governor every pop
// charges one work unit plus the entries scanned to expand it, so a
// degenerate search stops at its budget or cancellation instead of
// grinding through the full expansion cap.
func TopK(ctx context.Context, pi *core.ProbInstance, k int, maxExpansions int) ([]World, error) {
	gov := govern.From(ctx)
	if k <= 0 {
		return nil, fmt.Errorf("enumerate: k must be positive")
	}
	if maxExpansions <= 0 {
		maxExpansions = 1 << 20
	}
	g := pi.WeakInstance.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("enumerate: %w", err)
	}
	root := pi.Root()

	// collectPresent reconstructs the present-object set from the choice
	// chain (root plus every chosen child).
	collectPresent := func(st *topkState) map[model.ObjectID]bool {
		pr := map[model.ObjectID]bool{root: true}
		for c := st.last; c != nil; c = c.parent {
			for _, ch := range c.set {
				pr[ch] = true
			}
		}
		return pr
	}

	pq := &topkHeap{}
	heap.Push(pq, &topkState{next: 0, p: 1})
	var out []World
	expansions := 0
	for pq.Len() > 0 && len(out) < k {
		st := heap.Pop(pq).(*topkState)
		expansions++
		if expansions > maxExpansions {
			return nil, fmt.Errorf("enumerate: TopK exceeded %d expansions", maxExpansions)
		}
		if err := gov.Step(1); err != nil {
			return nil, err
		}
		pr := collectPresent(st)
		// Advance past absent objects.
		i := st.next
		for i < len(order) && !pr[order[i]] {
			i++
		}
		if i == len(order) {
			// Completed: materialize the world.
			s := model.NewInstance(root)
			for _, t := range pi.Types() {
				_ = s.RegisterType(t)
			}
			for o := range pr {
				s.AddObject(o)
			}
			for c := st.last; c != nil; c = c.parent {
				if c.leaf {
					t, _ := pi.TypeOf(c.object)
					// Errors impossible on valid instances: the type is
					// registered and the value is in its domain.
					_ = s.SetLeaf(c.object, t.Name, c.value)
					continue
				}
				for _, ch := range c.set {
					l, _ := pi.LabelOf(c.object, ch)
					_ = s.AddEdge(c.object, ch, l)
				}
			}
			out = append(out, World{S: s, P: st.p})
			continue
		}
		o := order[i]
		if pi.IsLeaf(o) {
			vpf := pi.VPF(o)
			if vpf == nil {
				heap.Push(pq, &topkState{next: i + 1, p: st.p, last: st.last})
				continue
			}
			for _, e := range vpf.Entries() {
				if e.Prob <= 0 {
					continue
				}
				heap.Push(pq, &topkState{
					next: i + 1, p: st.p * e.Prob,
					last: &topkChoice{parent: st.last, object: o, value: e.Value, leaf: true},
				})
			}
			continue
		}
		opf := pi.OPF(o)
		if opf == nil {
			return nil, fmt.Errorf("enumerate: non-leaf %s has no OPF", o)
		}
		if err := gov.Step(int64(opf.Len())); err != nil {
			return nil, err
		}
		for _, e := range opf.Entries() {
			if e.Prob <= 0 {
				continue
			}
			heap.Push(pq, &topkState{
				next: i + 1, p: st.p * e.Prob,
				last: &topkChoice{parent: st.last, object: o, set: e.Set},
			})
		}
	}
	return out, nil
}
