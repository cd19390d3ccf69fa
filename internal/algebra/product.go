package algebra

import (
	"fmt"

	"pxml/internal/core"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// CartesianProduct computes I × I′ per Definition 5.7: the two roots are
// merged into a single new root (so that path expressions applicable to
// either operand remain applicable to the product), the children of both
// old roots become children of the new root, and the new root's OPF is the
// product distribution ω″(c ∪ c′) = ω(r)(c) · ω′(r′)(c′) under the paper's
// independence assumption. All other objects keep their local functions.
//
// Identically named objects in the two operands are renamed first, per the
// paper ("objects with identical object ids in the two instances need to be
// renamed"): colliding identifiers of the second operand get a "′" suffix
// (repeated until fresh). The returned map records those renames (empty
// when the universes were already disjoint). newRoot must not collide with
// any object of either operand.
func CartesianProduct(pi1, pi2 *core.ProbInstance, newRoot model.ObjectID) (*core.ProbInstance, map[model.ObjectID]model.ObjectID, error) {
	if pi1.HasObject(newRoot) || pi2.HasObject(newRoot) {
		return nil, nil, fmt.Errorf("algebra: new root %s collides with an operand object", newRoot)
	}
	if _, ok := pi1.TypeOf(pi1.Root()); ok {
		return nil, nil, fmt.Errorf("algebra: root %s of first operand is a typed leaf; products merge roots away", pi1.Root())
	}
	if _, ok := pi2.TypeOf(pi2.Root()); ok {
		return nil, nil, fmt.Errorf("algebra: root %s of second operand is a typed leaf; products merge roots away", pi2.Root())
	}
	// Rename collisions in the second operand.
	renames := make(map[model.ObjectID]model.ObjectID)
	taken := make(map[model.ObjectID]bool, pi1.NumObjects()+pi2.NumObjects())
	for _, o := range pi1.Objects() {
		taken[o] = true
	}
	for _, o := range pi2.Objects() {
		if o == pi2.Root() {
			continue // roots merge away
		}
		if !taken[o] {
			taken[o] = true
			continue
		}
		fresh := o
		for taken[fresh] || fresh == newRoot {
			fresh += "′"
		}
		renames[o] = fresh
		taken[fresh] = true
	}
	if len(renames) > 0 {
		pi2 = pi2.Rename(renames)
	}

	// Merge type registries; conflicting domains are an error.
	out := core.NewProbInstance(newRoot)
	for _, t := range pi1.Types() {
		if err := out.RegisterType(t); err != nil {
			return nil, nil, err
		}
	}
	for _, t := range pi2.Types() {
		if err := out.RegisterType(t); err != nil {
			return nil, nil, fmt.Errorf("algebra: type clash in product: %w", err)
		}
	}

	// Copy both operands' structure and ℘, re-parenting the old roots'
	// entries onto the new root.
	r1, r2 := pi1.Root(), pi2.Root()
	for _, src := range []*core.ProbInstance{pi1, pi2} {
		oldRoot := r1
		if src == pi2 {
			oldRoot = r2
		}
		for _, o := range src.Objects() {
			dst := o
			if o == oldRoot {
				dst = newRoot
			}
			for _, l := range src.Labels(o) {
				// lch and card transfer; the two roots' label sets merge,
				// with merged cardinality bounds summing component-wise
				// (the product OPF's support counts are sums of the
				// operands' counts).
				children := src.LCh(o, l)
				iv := src.Card(o, l)
				if dst == newRoot {
					prev, had := outCard(out, newRoot, l)
					merged := out.LCh(newRoot, l).Union(children)
					out.SetLCh(newRoot, l, merged...)
					if had {
						out.SetCard(newRoot, l, prev.Min+iv.Min, prev.Max+iv.Max)
					} else {
						out.SetCard(newRoot, l, iv.Min, iv.Max)
					}
				} else {
					out.SetLCh(dst, l, children...)
					out.SetCard(dst, l, iv.Min, iv.Max)
				}
			}
			if t, ok := src.TypeOf(o); ok && dst != newRoot {
				if err := out.SetLeafType(dst, t.Name); err != nil {
					return nil, nil, err
				}
				if v := src.VPF(o); v != nil {
					out.SetVPF(dst, v)
				}
			}
			if o != oldRoot {
				if w := src.OPF(o); w != nil {
					out.SetOPF(dst, w)
				}
			}
		}
	}

	// Root OPF: the product distribution. A root with no OPF (a bare-root
	// operand) behaves as the point distribution on ∅.
	w1 := rootOPFOrEmpty(pi1)
	w2 := rootOPFOrEmpty(pi2)
	rootW := w1.Product(w2)
	if out.IsLeaf(newRoot) {
		// Both operands were bare roots: the product is a bare root too.
		return out, renames, nil
	}
	out.SetOPF(newRoot, rootW)
	return out, renames, nil
}

// outCard reports whether a card entry was explicitly set on out for
// (o, l) during the merge. The WeakInstance default (0..|lch|) cannot be
// distinguished from an explicit entry via Card alone, so the product
// tracks the first write by checking whether o already has l-children.
func outCard(out *core.ProbInstance, o model.ObjectID, l model.Label) (sets.Interval, bool) {
	if out.LCh(o, l).Len() == 0 {
		return sets.Interval{}, false
	}
	return out.Card(o, l), true
}

func rootOPFOrEmpty(pi *core.ProbInstance) *prob.OPF {
	if w := pi.OPF(pi.Root()); w != nil {
		return w
	}
	w := prob.NewOPF()
	w.Put(sets.NewSet(), 1)
	return w
}
