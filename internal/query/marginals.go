package query

import (
	"pxml/internal/core"
	"pxml/internal/model"
)

// ExistenceMarginals computes, in one top-down pass over a tree-structured
// instance, the probability that each object occurs in a compatible
// instance: marg(root) = 1 and marg(child) = marg(parent) ·
// P(child ∈ c(parent)), the chain-probability factorization of Section 6.2
// applied to every object at once. It is the batch form of the paper's
// point query (and of the Section 2 "does this author exist?" scenario).
// DAG instances need per-object inference (bayes.Network.ProbExistsCtx)
// because an object's parents' choices are not independent events there.
func ExistenceMarginals(pi *core.ProbInstance) (map[model.ObjectID]float64, error) {
	if !pi.IsTree() {
		return nil, ErrNotTree
	}
	g := pi.WeakInstance.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	marg := make(map[model.ObjectID]float64, len(order))
	marg[pi.Root()] = 1
	for _, o := range order {
		m, ok := marg[o]
		if !ok || m == 0 {
			continue
		}
		opf := pi.OPF(o)
		if opf == nil {
			continue
		}
		for _, c := range g.Children(o) {
			marg[c] = m * opf.ProbContains(c)
		}
	}
	return marg, nil
}
