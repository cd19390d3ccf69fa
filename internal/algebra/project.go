package algebra

import (
	"fmt"

	"pxml/internal/core"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// maxSurvivalFanout caps the per-entry subset enumeration of the ℘ update
// (2^k for k kept children with uncertain survival). The paper's largest
// experiment uses branching factor 8 (2^8 subsets); the cap leaves wide
// headroom while keeping the operation's cost bounded.
const maxSurvivalFanout = 24

// AncestorProject computes Λ_p(I): the ancestor projection of a
// probabilistic instance on a path expression (Definitions 5.2–5.3),
// using the efficient bottom-up local-interpretation update of Section 6.1
// (marginalization over dropped children, survival-probability weighting,
// ε normalization, and cardinality update). The input must have a
// tree-structured weak instance graph; AncestorProjectGlobal handles DAGs.
//
// When no object can satisfy p (structurally, or with positive
// probability), the result is the bare-root instance, matching the paper's
// remark that "only the root object is returned".
func AncestorProject(pi *core.ProbInstance, p pathexpr.Path) (*core.ProbInstance, error) {
	if !pi.IsTree() {
		return nil, ErrNotTree
	}
	return AncestorProjectTimed(pi, p, nil)
}

// AncestorProjectTimed is AncestorProject without the tree check (the
// caller vouches for tree structure), recording per-phase timings into sink
// when non-nil. The bench harness uses it to reproduce Figure 7(a)/(b).
func AncestorProjectTimed(pi *core.ProbInstance, p pathexpr.Path, sink *Timings) (*core.ProbInstance, error) {
	if sink == nil {
		sink = &Timings{}
	}
	sw := newStopwatch(sink)

	// Locate: evaluate the path expression and prune to the plan.
	g := pi.WeakInstance.Graph()
	if p.Root != pi.Root() {
		sw.lap(&sink.Locate)
		return bareRoot(pi), nil
	}
	if p.Len() == 0 {
		// Λ_r keeps just the root.
		sw.lap(&sink.Locate)
		return bareRoot(pi), nil
	}
	plan := pathexpr.NewPlan(g, p, nil)
	sw.lap(&sink.Locate)
	if plan.IsEmpty() {
		return bareRoot(pi), nil
	}

	// Structure: assemble the projected weak instance skeleton.
	keptChildren := make(map[model.ObjectID][]model.ObjectID)
	for _, e := range plan.Edges {
		keptChildren[e.From] = append(keptChildren[e.From], e.To)
	}
	matched := make(map[model.ObjectID]bool)
	for _, o := range plan.Matched() {
		matched[o] = true
	}
	sw.lap(&sink.Structure)

	// Update ℘ bottom-up: levels n−1 … 0. In a tree every kept object
	// occurs in exactly one level. eps[o] is ε_o, the probability that o
	// retains at least one surviving child (1 for matched objects).
	eps := make(map[model.ObjectID]float64, len(keptChildren))
	newOPF := make(map[model.ObjectID]*prob.OPF, len(keptChildren))
	n := p.Len()
	for level := n - 1; level >= 0; level-- {
		for o := range plan.Keep[level] {
			if matched[o] {
				// A matched object occurring at an inner level cannot
				// happen in a tree; guard anyway.
				continue
			}
			opf := pi.OPF(o)
			if opf == nil {
				return nil, fmt.Errorf("algebra: non-leaf %s has no OPF", o)
			}
			kc := keptChildren[o]
			w, err := survivalUpdate(opf, kc, matched, eps)
			if err != nil {
				return nil, err
			}
			if o == pi.Root() {
				// The root keeps its ∅ mass unnormalized: ω'(r)(∅) is the
				// probability that a compatible instance has no match.
				newOPF[o] = w
				eps[o] = 1 - w.Prob(nil)
				continue
			}
			e := 1 - w.Prob(nil)
			eps[o] = e
			if e <= 0 {
				// o can never retain a surviving child; it will be
				// stripped below via its parent's support.
				continue
			}
			w.Put(sets.NewSet(), 0)
			if err := w.Normalize(); err != nil {
				return nil, fmt.Errorf("algebra: normalizing ℘'(%s): %w", o, err)
			}
			newOPF[o] = w
		}
	}
	sw.lap(&sink.Update)

	// Structure (final): strip objects that no surviving support set ever
	// contains, then emit the result instance with updated card.
	rootOPF := newOPF[pi.Root()]
	if rootOPF == nil || 1-rootOPF.Prob(nil) <= 0 {
		sw.lap(&sink.Structure)
		return bareRoot(pi), nil
	}
	// The result is assembled through the bulk loader: it is a fresh
	// instance nobody else can see yet, so the per-call graph invalidation
	// of SetLCh/SetCard/AddObject would buy nothing.
	ld := core.NewLoader(pi.Root(), len(newOPF)+len(matched))
	for _, t := range pi.Types() {
		// Error impossible: types were valid in the input.
		_ = ld.RegisterType(t)
	}
	stack := []model.ObjectID{pi.Root()}
	visited := map[model.ObjectID]bool{pi.Root(): true}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if matched[o] {
			// Matched objects are leaves of the result; keep their leaf
			// type and VPF when they had one.
			if t, ok := pi.TypeOf(o); ok {
				// Error impossible: type registered above.
				_ = ld.SetLeafType(o, t.Name)
				if v := pi.VPF(o); v != nil {
					ld.SetVPF(o, v)
				}
			}
			continue
		}
		w := newOPF[o]
		if w == nil {
			continue
		}
		// Children with positive marginal in the new OPF survive.
		marg := make(map[model.ObjectID]float64)
		w.Each(func(c sets.Set, pr float64) {
			if pr <= 0 {
				return
			}
			for _, ch := range c {
				marg[ch] += pr
			}
		})
		// plan.Edges is sorted by (From, To), so keptChildren[o] and every
		// per-label subsequence of it is a canonical set as built.
		perLabel := make(map[model.Label]sets.Set)
		for _, ch := range keptChildren[o] {
			if marg[ch] <= 0 {
				continue
			}
			l, ok := pi.LabelOf(o, ch)
			if !ok {
				return nil, fmt.Errorf("algebra: kept child %s of %s has no label", ch, o)
			}
			perLabel[l] = append(perLabel[l], ch)
			if !visited[ch] {
				visited[ch] = true
				ld.AddObject(ch)
				stack = append(stack, ch)
			}
		}
		if len(perLabel) == 0 {
			continue
		}
		for l, cs := range perLabel {
			lo, hi := cardBounds(w, pi, o, l)
			ld.SetEdges(o, l, cs, lo, hi)
		}
		ld.SetOPF(o, w)
	}
	out, err := ld.Instance()
	if err != nil {
		return nil, fmt.Errorf("algebra: assembling Λ_%s: %w", p, err)
	}
	// If stripping removed every root child, collapse to the bare root.
	if out.IsLeaf(out.Root()) {
		sw.lap(&sink.Structure)
		return bareRoot(pi), nil
	}
	sw.lap(&sink.Structure)
	return out, nil
}

// survivalUpdate computes the Section 6.1 update for one object: for each
// original OPF entry c, distribute its probability over the subsets of the
// kept children in c that may survive, weighting by Π ε_j for survivors and
// Π (1−ε_j) for kept non-survivors (dropped children marginalize away
// implicitly). Matched children survive surely (ε = 1).
func survivalUpdate(opf *prob.OPF, kept []model.ObjectID, matched map[model.ObjectID]bool, eps map[model.ObjectID]float64) (*prob.OPF, error) {
	keptSet := make(map[model.ObjectID]float64, len(kept))
	for _, c := range kept {
		if matched[c] {
			keptSet[c] = 1
		} else {
			keptSet[c] = eps[c]
		}
	}
	out := prob.NewOPF()
	var badFanout error
	opf.Each(func(c sets.Set, p float64) {
		if p <= 0 || badFanout != nil {
			return
		}
		// Partition the entry's kept children into sure survivors (ε = 1)
		// and uncertain ones; enumerate survivor subsets of the latter.
		var sure, unsure []model.ObjectID
		var unsureEps []float64
		for _, ch := range c {
			e, ok := keptSet[ch]
			if !ok || e <= 0 {
				continue // dropped or dead child: marginalized away
			}
			if e >= 1 {
				sure = append(sure, ch)
			} else {
				unsure = append(unsure, ch)
				unsureEps = append(unsureEps, e)
			}
		}
		k := len(unsure)
		if k > maxSurvivalFanout {
			badFanout = fmt.Errorf("algebra: survival fanout 2^%d exceeds limit", k)
			return
		}
		for mask := 0; mask < 1<<k; mask++ {
			weight := p
			// Build the survivor set in sorted order: sure and unsure are
			// both drawn from the sorted entry, so a linear merge keeps
			// canonical order without re-sorting.
			survivors := make([]string, 0, len(sure)+k)
			si := 0
			for i := 0; i < k; i++ {
				in := mask&(1<<i) != 0
				if in {
					weight *= unsureEps[i]
					for si < len(sure) && sure[si] < unsure[i] {
						survivors = append(survivors, sure[si])
						si++
					}
					survivors = append(survivors, unsure[i])
				} else {
					weight *= 1 - unsureEps[i]
				}
			}
			survivors = append(survivors, sure[si:]...)
			if weight <= 0 {
				continue
			}
			out.Add(sets.Set(survivors), weight)
		}
	})
	if badFanout != nil {
		return nil, badFanout
	}
	return out, nil
}

// cardBounds computes the updated cardinality of label l at object o: the
// min and max count of l-labeled children over the support of the new OPF
// (the Section 6.1 card′ formulas).
func cardBounds(w *prob.OPF, pi *core.ProbInstance, o model.ObjectID, l model.Label) (int, int) {
	lo, hi := -1, 0
	w.Each(func(c sets.Set, pr float64) {
		if pr <= 0 {
			return
		}
		n := 0
		for _, ch := range c {
			if cl, ok := pi.LabelOf(o, ch); ok && cl == l {
				n++
			}
		}
		if lo == -1 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	})
	if lo == -1 {
		lo = 0
	}
	return lo, hi
}

// bareRoot returns the root-only probabilistic instance that an empty
// projection yields: the root becomes a (untyped) leaf with no local
// probability function, representing the certain result.
func bareRoot(pi *core.ProbInstance) *core.ProbInstance {
	out := core.NewProbInstance(pi.Root())
	for _, t := range pi.Types() {
		_ = out.RegisterType(t)
	}
	return out
}
