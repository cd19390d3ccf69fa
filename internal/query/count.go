package query

import (
	"context"
	"fmt"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/pathexpr"
)

// CountDistribution computes the exact probability distribution of
// |{o : o ∈ p}| — how many objects satisfy the path expression in a
// possible world — on a tree-structured instance. It is the aggregate
// counterpart of the existence query: a bottom-up convolution over the
// projection plan, polynomial in the number of matched objects (each
// node's distribution has at most #matched+1 entries).
//
// The result maps counts to probabilities and always sums to one (count 0
// collects the no-match worlds). Under ctx's governor each convolution
// product is charged against the step budget before it is computed, so a
// wide plan stops within one OPF entry of exhausting its budget or being
// cancelled.
func CountDistribution(ctx context.Context, pi *core.ProbInstance, p pathexpr.Path) (map[int]float64, error) {
	gov := govern.From(ctx)
	if !pi.IsTree() {
		return nil, ErrNotTree
	}
	if p.Root != pi.Root() {
		return map[int]float64{0: 1}, nil
	}
	if p.Len() == 0 {
		return map[int]float64{1: 1}, nil // the root always matches itself
	}
	plan := pathexpr.NewPlan(pi.WeakInstance.Graph(), p, nil)
	if plan.IsEmpty() {
		return map[int]float64{0: 1}, nil
	}
	// dist[pos] is the distribution of the number of matches in the kept
	// subtree of the node at plan position pos, given that it exists.
	dist := make([]map[int]float64, len(plan.Nodes))
	n := p.Len()
	matched, _ := plan.Level(n)
	for pos := matched; pos < len(plan.Nodes); pos++ {
		dist[pos] = map[int]float64{1: 1}
	}
	var members []int32
	view := pi.ChildSets()
	for level := n - 1; level >= 0; level-- {
		lo, hi := plan.Level(level)
		for pos := lo; pos < hi; pos++ {
			opf := pi.OPF(plan.Nodes[pos].ID)
			if opf == nil {
				return nil, fmt.Errorf("query: non-leaf %s has no OPF", plan.Nodes[pos].ID)
			}
			kids := plan.KidsOf(pos)
			out := map[int]float64{}
			var err error
			view.Each(plan.Nodes[pos].V, func(c []uint64, pr float64) {
				if pr <= 0 || err != nil {
					return
				}
				if err = gov.Step(1); err != nil {
					return
				}
				// Convolve the kept children present in this child set.
				acc := map[int]float64{0: pr}
				members = pathexpr.Members(members[:0], kids, c)
				for _, j := range members {
					dj := dist[kids[j].Pos]
					if err = gov.Step(int64(len(acc) * len(dj))); err != nil {
						return
					}
					next := make(map[int]float64, len(acc)*len(dj))
					for a, pa := range acc {
						for b, pb := range dj {
							next[a+b] += pa * pb
						}
					}
					acc = next
				}
				for k, v := range acc {
					out[k] += v
				}
			})
			if err != nil {
				return nil, err
			}
			dist[pos] = out
		}
	}
	return dist[0], nil
}

// ExpectedCount returns E[|{o : o ∈ p}|] on a tree-structured instance.
// By linearity of expectation it equals the sum of the per-match chain
// probabilities, which the implementation cross-checks cheaply against the
// full distribution.
func ExpectedCount(ctx context.Context, pi *core.ProbInstance, p pathexpr.Path) (float64, error) {
	d, err := CountDistribution(ctx, pi, p)
	if err != nil {
		return 0, err
	}
	e := 0.0
	for k, pr := range d {
		e += float64(k) * pr
	}
	return e, nil
}
