// Package query implements the probabilistic queries of Section 6.2 of the
// PXML paper: the probability of a simple object chain, probabilistic point
// queries ("what is the probability that object o satisfies path expression
// p?", Definition 6.1) and their extension to existence queries ("what is
// the probability that some object satisfies p?"), plus value-existence
// queries combining a path with a leaf value.
//
// The fast algorithms assume a tree-structured weak instance graph, exactly
// as Section 6 does. For DAG instances use the bayes package (exact
// variable-elimination inference) or the enumeration oracle.
//
// Every governed entry point takes a context first and runs under the
// resource governor it carries (govern.From): the ε recursion charges its
// OPF scans against the query's step budget and polls cancellation at each
// kept object. A context without a governor runs unmetered.
package query

import (
	"context"
	"fmt"

	"pxml/internal/algebra"
	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/graph"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/sets"
)

// ErrNotTree is returned by the query fast paths on non-tree instances;
// it is the same sentinel the algebra fast paths use, so callers can check
// a single error value. Use bayes.PathProb or enumeration for DAGs.
var ErrNotTree = algebra.ErrNotTree

// ChainProb computes the probability of a simple object chain
// c = r.o₁.o₂…oᵢ per the Section 6.2 formula: the product over the chain of
// P(oₖ₊₁ ∈ c(oₖ)) — each factor conditional on the parent's existence, so
// the product telescopes into the chain probability. Unlike the other
// queries this is exact on DAGs too: a chain is a single path, and each
// object's child-set choice is independent of how the object was reached.
func ChainProb(pi *core.ProbInstance, chain []model.ObjectID) (float64, error) {
	if len(chain) == 0 {
		return 0, fmt.Errorf("query: empty chain")
	}
	if chain[0] != pi.Root() {
		return 0, fmt.Errorf("query: chain must start at the root %s, got %s", pi.Root(), chain[0])
	}
	p := 1.0
	for i := 0; i+1 < len(chain); i++ {
		opf := pi.OPF(chain[i])
		if opf == nil {
			return 0, nil // a leaf has no children: the chain is impossible
		}
		if _, ok := pi.LabelOf(chain[i], chain[i+1]); !ok {
			return 0, nil
		}
		p *= opf.ProbContains(chain[i+1])
		if p == 0 {
			return 0, nil
		}
	}
	return p, nil
}

// PointQuery computes the Definition 6.1 probabilistic point query: the
// probability that object o satisfies path expression p in a compatible
// instance. Per Section 6.2 it extracts o and its path ancestors and
// evaluates ε_r over that restriction; in a tree that restriction is the
// unique root chain of o. It runs ungoverned; PointQueryIndexedCtx is the
// governed form.
func PointQuery(pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	if !pi.IsTree() {
		return 0, ErrNotTree
	}
	return pointEpsilon(pi, pi.WeakInstance.Graph(), p, o, nil, nil)
}

// PointQueryIndexedCtx is PointQuery through a prebuilt index, under ctx's
// governor. Precondition: pi's weak graph is a tree; it does not check.
func PointQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, o model.ObjectID) (float64, error) {
	return pointEpsilon(pi, idx.Graph(), p, o, nil, govern.From(ctx))
}

// ExistsQuery computes the extension the paper describes at the end of
// Section 6.2: the probability that some object satisfies p. It keeps all
// objects satisfying the path expression together with their path
// ancestors and computes ε_r bottom-up.
func ExistsQuery(ctx context.Context, pi *core.ProbInstance, p pathexpr.Path) (float64, error) {
	return treeEpsilon(ctx, pi, p, nil)
}

// ValueExistsQuery computes the probability that some leaf satisfying p
// carries value v — the probabilistic reading of the value selection
// condition val(p) = v. Matched leaves succeed with probability VPF(v);
// matched non-leaves or unvalued leaves never do.
func ValueExistsQuery(ctx context.Context, pi *core.ProbInstance, p pathexpr.Path, v model.Value) (float64, error) {
	return treeEpsilon(ctx, pi, p, valueSuccess(pi, v))
}

// ValuePointQuery computes P(o ∈ p ∧ val(o) = v) for a specific leaf o.
func ValuePointQuery(ctx context.Context, pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID, v model.Value) (float64, error) {
	if !pi.IsTree() {
		return 0, ErrNotTree
	}
	return pointEpsilon(pi, pi.WeakInstance.Graph(), p, o, valueSuccess(pi, v), govern.From(ctx))
}

// treeEpsilon is epsilonRoot over every match on a tree instance under
// ctx's governor, and ErrNotTree on any other.
func treeEpsilon(ctx context.Context, pi *core.ProbInstance, p pathexpr.Path, success func(model.ObjectID) float64) (float64, error) {
	if !pi.IsTree() {
		return 0, ErrNotTree
	}
	return epsilonRoot(pi, pi.WeakInstance.Graph(), p, nil, success, govern.From(ctx))
}

// pointEpsilon is epsilonRoot with targets {o}, read off o's root chain
// (pathexpr.RootChain) instead of a plan: where every object above o has
// one parent, the plan restricted to o is that chain, one node per level.
// It runs the same recursion over the same nodes in the same order — each
// chain object's OPF entries in canonical order, ε of the object below it
// standing in for the plan's one kept child — and charges the governor the
// same steps, so answers and step counts are those of the plan, bit for
// bit (DESIGN §34). An object with several parents on the way sends the
// query to the plan.
func pointEpsilon(pi *core.ProbInstance, g *graph.Graph, p pathexpr.Path, o model.ObjectID, success func(model.ObjectID) float64, gov *govern.Governor) (float64, error) {
	if p.Root != pi.Root() || p.Len() == 0 {
		return epsilonRoot(pi, g, p, map[model.ObjectID]bool{o: true}, success, gov)
	}
	var buf [16]model.ObjectID
	chain, ok := pathexpr.RootChain(buf[:0], g, p, o)
	if !ok {
		return epsilonRoot(pi, g, p, map[model.ObjectID]bool{o: true}, success, gov)
	}
	if chain == nil {
		return 0, nil
	}
	eps := 1.0
	if success != nil {
		eps = success(o)
	}
	for k := 1; k < len(chain); k++ {
		opf := pi.OPF(chain[k])
		if opf == nil {
			return 0, fmt.Errorf("query: non-leaf %s has no OPF", chain[k])
		}
		if err := gov.Step(int64(opf.Len())); err != nil {
			return 0, err
		}
		kid, fail := chain[k-1], 0.0
		opf.Each(func(c sets.Set, pr float64) {
			if pr <= 0 {
				return
			}
			f := pr
			if c.Contains(kid) {
				f *= 1 - eps
			}
			fail += f
		})
		eps = 1 - fail
	}
	// Clamp tiny negative residue from floating-point cancellation.
	return max(eps, 0), nil
}

// valueSuccess is the success probability of a matched object in a value
// query: VPF(o)(v), and 0 for an object without a VPF.
func valueSuccess(pi *core.ProbInstance, v model.Value) func(model.ObjectID) float64 {
	return func(o model.ObjectID) float64 {
		if vpf := pi.VPF(o); vpf != nil {
			return vpf.Prob(v)
		}
		return 0
	}
}

// epsilonRoot runs the ε recursion of Section 6.1/6.2 over the plan of p
// restricted to targets (nil = all matches): bottom-up,
//
//	ε_o = 1 − Σ_c ω(o)(c) · Π_{j ∈ c ∩ kept} (1 − ε_j)
//
// with matched objects assigned success probability 1 (or success(o) when a
// success function is supplied, e.g. a VPF lookup for value queries). ε_r
// is the probability that a compatible instance contains a successful
// match. g is pi's weak instance graph, whose successor table the plan is
// read from. A non-nil governor is charged one work unit per OPF entry
// scanned, so wide-OPF instances hit their step budget (or observe
// cancellation) within one kept object instead of finishing the full
// bottom-up pass.
func epsilonRoot(pi *core.ProbInstance, g *graph.Graph, p pathexpr.Path, targets map[model.ObjectID]bool, success func(model.ObjectID) float64, gov *govern.Governor) (float64, error) {
	if p.Root != pi.Root() {
		return 0, nil
	}
	if p.Len() == 0 {
		// The bare root always satisfies its own path expression; for
		// value queries the root has no value, so success is 0.
		if success != nil {
			return success(pi.Root()), nil
		}
		if targets != nil && !targets[pi.Root()] {
			return 0, nil
		}
		return 1, nil
	}
	plan := pathexpr.NewPlan(g, p, targets)
	if plan.IsEmpty() {
		return 0, nil
	}
	// eps is indexed by plan position; the root is at 0.
	eps := make([]float64, len(plan.Nodes))
	n := p.Len()
	matched, _ := plan.Level(n)
	for pos := matched; pos < len(plan.Nodes); pos++ {
		eps[pos] = 1
		if success != nil {
			eps[pos] = success(plan.Nodes[pos].ID)
		}
	}
	var members []int32
	view := pi.ChildSets()
	for level := n - 1; level >= 0; level-- {
		lo, hi := plan.Level(level)
		for pos := lo; pos < hi; pos++ {
			opf := pi.OPF(plan.Nodes[pos].ID)
			if opf == nil {
				return 0, fmt.Errorf("query: non-leaf %s has no OPF", plan.Nodes[pos].ID)
			}
			if err := gov.Step(int64(opf.Len())); err != nil {
				return 0, err
			}
			kids := plan.KidsOf(pos)
			fail := 0.0
			view.Each(plan.Nodes[pos].V, func(c []uint64, pr float64) {
				if pr <= 0 {
					return
				}
				f := pr
				members = pathexpr.Members(members[:0], kids, c)
				for _, j := range members {
					f *= 1 - eps[kids[j].Pos]
				}
				fail += f
			})
			eps[pos] = 1 - fail
		}
	}
	// Clamp tiny negative residue from floating-point cancellation.
	return max(eps[0], 0), nil
}
