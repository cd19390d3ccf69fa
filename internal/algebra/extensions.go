package algebra

import (
	"fmt"

	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// This file implements the operators the paper mentions but defers:
// descendant projection and single projection (named in Section 5.1 as
// companions of ancestor projection), and join, which the paper says "can
// be defined in terms of these operations in the standard way" (Section 5).
//
// Semantics chosen here, matching the ancestor-projection pattern of
// "apply the structural operation to every compatible instance and merge
// identical results":
//
//   - Single projection Π_p keeps the root and the objects matched by p,
//     which become direct children of the root under p's final label.
//   - Descendant projection Δ_p is Π_p but each matched object also keeps
//     its entire substructure (the dual of ancestor projection, which keeps
//     everything above the matches).
//
// Both change which objects are correlated: the joint distribution over
// which matched objects exist does not factor per-object, but it is exactly
// representable as the new root's OPF, since PXML OPFs are arbitrary
// distributions over child sets. The fast implementations compute that
// joint bottom-up over the match plan; matched-object substructures keep
// their original local functions (they are conditionally independent of
// everything else given their object exists).

// maxJointSupport bounds the support size of the joint matched-set
// distribution computed by descendant/single projection.
const maxJointSupport = 1 << 16

// SingleProject computes Π_p on a tree-structured probabilistic instance.
// The final label of p must not be the wildcard (it becomes the label of
// the new root→match edges).
func SingleProject(pi *core.ProbInstance, p pathexpr.Path) (*core.ProbInstance, error) {
	return projectMatched(pi, p, false)
}

// DescendantProject computes Δ_p on a tree-structured probabilistic
// instance: like SingleProject but matched objects keep their entire
// substructure with unchanged local interpretations.
func DescendantProject(pi *core.ProbInstance, p pathexpr.Path) (*core.ProbInstance, error) {
	return projectMatched(pi, p, true)
}

func projectMatched(pi *core.ProbInstance, p pathexpr.Path, keepSubtrees bool) (*core.ProbInstance, error) {
	if !pi.IsTree() {
		return nil, ErrNotTree
	}
	if p.Root != pi.Root() || p.Len() == 0 {
		return bareRoot(pi), nil
	}
	last := p.Labels[p.Len()-1]
	if last == pathexpr.Wildcard {
		return nil, fmt.Errorf("algebra: %s: wildcard final label has no canonical result label", p)
	}
	plan := pathexpr.NewPlan(pi.WeakInstance.Graph(), p, nil)
	if plan.IsEmpty() {
		return bareRoot(pi), nil
	}

	// Bottom-up joint: the distribution over subsets of matched objects
	// below (or equal to) each kept object, given that it exists.
	joint, err := matchedJoint(pi, plan)
	if err != nil {
		return nil, err
	}
	rootDist := joint[0]
	if rootDist == nil || 1-rootDist.Prob(nil) <= 0 {
		return bareRoot(pi), nil
	}

	out := core.NewProbInstance(pi.Root())
	for _, t := range pi.Types() {
		_ = out.RegisterType(t)
	}
	// Survivor matches: positive marginal under the root joint.
	marg := make(map[model.ObjectID]float64)
	rootDist.Each(func(c sets.Set, pr float64) {
		if pr <= 0 {
			return
		}
		for _, o := range c {
			marg[o] += pr
		}
	})
	var kept []model.ObjectID
	for _, o := range plan.Matched() {
		if marg[o] > 0 {
			kept = append(kept, o)
		}
	}
	if len(kept) == 0 {
		return bareRoot(pi), nil
	}
	out.SetLCh(pi.Root(), last, kept...)
	lo, hi := -1, 0
	rootDist.Each(func(c sets.Set, pr float64) {
		if pr <= 0 {
			return
		}
		if lo == -1 || c.Len() < lo {
			lo = c.Len()
		}
		if c.Len() > hi {
			hi = c.Len()
		}
	})
	if lo == -1 {
		lo = 0
	}
	out.SetCard(pi.Root(), last, lo, hi)
	out.SetOPF(pi.Root(), rootDist)

	for _, o := range kept {
		if err := copyLeafInfo(pi, out, o); err != nil {
			return nil, err
		}
		if !keepSubtrees {
			continue
		}
		// Copy o's entire weak substructure; its local functions are unchanged
		// and shared with the input.
		stack := []model.ObjectID{o}
		seen := map[model.ObjectID]bool{o: true}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, l := range pi.Labels(cur) {
				children := pi.LCh(cur, l)
				out.SetLCh(cur, l, children...)
				iv := pi.Card(cur, l)
				out.SetCard(cur, l, iv.Min, iv.Max)
				for _, ch := range children {
					if !seen[ch] {
						seen[ch] = true
						stack = append(stack, ch)
						if err := copyLeafInfo(pi, out, ch); err != nil {
							return nil, err
						}
					}
				}
			}
			if w := pi.OPF(cur); w != nil && !pi.IsLeaf(cur) {
				out.SetOPF(cur, w)
			}
		}
	}
	return out, nil
}

// copyLeafInfo transfers type and VPF when o is a typed weak-instance leaf.
func copyLeafInfo(pi, out *core.ProbInstance, o model.ObjectID) error {
	t, ok := pi.TypeOf(o)
	if !ok {
		return nil
	}
	if err := out.SetLeafType(o, t.Name); err != nil {
		return err
	}
	if v := pi.VPF(o); v != nil {
		out.SetVPF(o, v)
	}
	return nil
}

// matchedJoint computes, bottom-up over the plan, the distribution of the
// set of matched objects occurring below each kept object given that the
// object exists, indexed by plan position. Distributions are represented as
// OPFs over matched-object sets.
func matchedJoint(pi *core.ProbInstance, plan pathexpr.Plan) ([]*prob.OPF, error) {
	joint := make([]*prob.OPF, len(plan.Nodes))
	n := plan.Path.Len()
	matched, _ := plan.Level(n)
	for pos := matched; pos < len(plan.Nodes); pos++ {
		d := prob.NewOPF()
		d.Put(sets.NewSet(plan.Nodes[pos].ID), 1)
		joint[pos] = d
	}
	var members []int32
	view := pi.ChildSets()
	for level := n - 1; level >= 0; level-- {
		lo, hi := plan.Level(level)
		for pos := lo; pos < hi; pos++ {
			o := plan.Nodes[pos].ID
			opf := pi.OPF(o)
			if opf == nil {
				return nil, fmt.Errorf("algebra: non-leaf %s has no OPF", o)
			}
			kids := plan.KidsOf(pos)
			d := prob.NewOPF()
			overflow := false
			view.Each(plan.Nodes[pos].V, func(c []uint64, pr float64) {
				if pr <= 0 || overflow {
					return
				}
				// Convolve the joints of the kept children in c: start
				// from the empty set and extend child by child.
				acc := prob.NewOPF()
				acc.Put(sets.NewSet(), pr)
				members = pathexpr.Members(members[:0], kids, c)
				for _, j := range members {
					acc = acc.Product(joint[kids[j].Pos])
					if acc.Len() > maxJointSupport {
						overflow = true
						return
					}
				}
				acc.Each(func(s sets.Set, w float64) { d.Add(s, w) })
				if d.Len() > maxJointSupport {
					overflow = true
				}
			})
			if overflow {
				return nil, fmt.Errorf("algebra: joint matched-set distribution at %s exceeds %d entries", o, maxJointSupport)
			}
			joint[pos] = d
		}
	}
	return joint, nil
}

// JoinResult bundles the outputs of Join.
type JoinResult struct {
	Instance *core.ProbInstance
	// Prob is the probability of the join condition in the product.
	Prob float64
	// Renames records identifier renames applied to the second operand.
	Renames map[model.ObjectID]model.ObjectID
}

// Join implements the paper's join as Cartesian product followed by
// selection: σ_cond(I × I′). The condition applies to the product instance
// (rooted at newRoot); remember that colliding identifiers of the second
// operand are renamed (see CartesianProduct) before the condition is
// evaluated.
func Join(pi1, pi2 *core.ProbInstance, newRoot model.ObjectID, cond Condition) (*JoinResult, error) {
	prod, renames, err := CartesianProduct(pi1, pi2, newRoot)
	if err != nil {
		return nil, err
	}
	sel, p, err := Select(prod, cond)
	if err != nil {
		return nil, err
	}
	return &JoinResult{Instance: sel, Prob: p, Renames: renames}, nil
}

// SingleProjectGlobal is the enumeration-based oracle for SingleProject.
func SingleProjectGlobal(pi *core.ProbInstance, p pathexpr.Path, limit int) (*enumerate.GlobalInterpretation, error) {
	return matchedGlobal(pi, p, limit, false)
}

// DescendantProjectGlobal is the enumeration-based oracle for
// DescendantProject.
func DescendantProjectGlobal(pi *core.ProbInstance, p pathexpr.Path, limit int) (*enumerate.GlobalInterpretation, error) {
	return matchedGlobal(pi, p, limit, true)
}

func matchedGlobal(pi *core.ProbInstance, p pathexpr.Path, limit int, keepSubtrees bool) (*enumerate.GlobalInterpretation, error) {
	if p.Len() > 0 && p.Labels[p.Len()-1] == pathexpr.Wildcard {
		return nil, fmt.Errorf("algebra: %s: wildcard final label has no canonical result label", p)
	}
	gi, err := enumerate.Enumerate(pi, limit)
	if err != nil {
		return nil, err
	}
	return gi.Transform(func(s *model.Instance) *model.Instance {
		out := model.NewInstance(s.Root())
		for _, t := range s.Types() {
			_ = out.RegisterType(t)
		}
		if p.Root != s.Root() || p.Len() == 0 {
			return out
		}
		last := p.Labels[p.Len()-1]
		for _, o := range p.Targets(s.Graph()) {
			_ = out.AddEdge(s.Root(), o, last)
			copyWorldLeaf(s, out, o)
			if !keepSubtrees {
				continue
			}
			for _, d := range s.Graph().Descendants(o) {
				out.AddObject(d)
				copyWorldLeaf(s, out, d)
			}
			stack := []model.ObjectID{o}
			seen := map[model.ObjectID]bool{o: true}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				s.Graph().EachChild(cur, func(child, label string) {
					_ = out.AddEdge(cur, child, label)
					if !seen[child] {
						seen[child] = true
						stack = append(stack, child)
					}
				})
			}
		}
		return out
	}), nil
}

func copyWorldLeaf(s, out *model.Instance, o model.ObjectID) {
	if !s.IsLeaf(o) {
		return
	}
	if t, ok := s.TypeOf(o); ok {
		if v, okV := s.ValueOf(o); okV {
			_ = out.SetLeaf(o, t.Name, v)
		}
	}
}
