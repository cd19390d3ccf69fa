package algebra

import (
	"fmt"
	"sort"
	"strings"

	"pxml/internal/core"
	"pxml/internal/model"
	"pxml/internal/sets"
)

// Conjunction is the conjunction of several selection conditions,
// σ_{sc₁ ∧ sc₂ ∧ …}. The fast path supports conjunctions of object
// conditions on a tree: the required objects' root chains form a subtree,
// and conditioning each involved object's OPF on containing all of its
// required children yields the exact conditional distribution with
// probability equal to the product of the per-object normalization
// constants (the same telescoping argument as the single-chain case).
type Conjunction struct {
	Conds []Condition
}

// Satisfies implements Condition: all members must hold.
func (c Conjunction) Satisfies(s *model.Instance) bool {
	for _, sub := range c.Conds {
		if !sub.Satisfies(s) {
			return false
		}
	}
	return true
}

func (c Conjunction) String() string {
	parts := make([]string, len(c.Conds))
	for i, sub := range c.Conds {
		parts[i] = sub.String()
	}
	return strings.Join(parts, " ∧ ")
}

// selectConjunction implements the fast path for conjunctions of object
// conditions. Called from SelectTimed.
func selectConjunction(pi, out *core.ProbInstance, c Conjunction, sw *stopwatch) (float64, error) {
	g := pi.WeakInstance.Graph()
	// required[o] is the set of children o must contain.
	required := make(map[model.ObjectID]map[model.ObjectID]bool)
	for _, sub := range c.Conds {
		oc, ok := sub.(ObjectCondition)
		if !ok {
			return 0, fmt.Errorf("algebra: conjunction fast path supports object conditions only, got %T (use SelectGlobal)", sub)
		}
		if _, err := rootChain(g, oc.Path, oc.Object); err != nil {
			return 0, err
		}
		// Walk the unique parent chain up to the root.
		cur := oc.Object
		for cur != pi.Root() {
			ps := g.Parents(cur)
			if len(ps) != 1 {
				return 0, fmt.Errorf("algebra: object %s has %d parents; conjunction conditioning needs a tree", cur, len(ps))
			}
			parent := ps[0]
			if required[parent] == nil {
				required[parent] = make(map[model.ObjectID]bool)
			}
			required[parent][cur] = true
			cur = parent
		}
	}
	sw.lap(phaseLocate)
	// Multiply the norms in sorted parent order: the product is the
	// statement's answer and must not depend on map iteration order.
	parents := make([]model.ObjectID, 0, len(required))
	for parent := range required {
		parents = append(parents, parent)
	}
	sort.Strings(parents)
	total := 1.0
	for _, parent := range parents {
		req := required[parent]
		opf := pi.OPF(parent)
		if opf == nil {
			return 0, fmt.Errorf("algebra: chain object %s has no OPF", parent)
		}
		reqSet := make([]model.ObjectID, 0, len(req))
		for r := range req {
			reqSet = append(reqSet, r)
		}
		need := sets.NewSet(reqSet...)
		cond, norm, ok := opf.Condition(func(s sets.Set) bool { return need.SubsetOf(s) })
		if !ok {
			sw.lap(phaseUpdate)
			return 0, fmt.Errorf("%w: %s cannot contain all of %s", ErrZeroProbability, parent, need)
		}
		out.SetOPF(parent, cond)
		total *= norm
	}
	sw.lap(phaseUpdate)
	return total, nil
}
