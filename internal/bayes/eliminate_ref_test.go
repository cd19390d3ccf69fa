package bayes

import (
	"context"
	"fmt"
	"sort"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// The reference below is the variable elimination, relevance pruning and
// path augmentation that allocated everything per call, before the pooled
// workspace: the same code with its names prefixed "ref" (and clone and
// checkedNewFactor spelled as they are now). FuzzEliminateDifferential
// holds the workspace to it bit for bit.

// refElimination is the state of one variable-elimination run. Everything
// in it is per call: the factors it is given are only read.
type refElimination struct {
	// work holds the input factors followed by each bucket's summed-out
	// result; an entry is nil once it has been merged into a bucket.
	work []*Factor
	// ids lists the distinct variable ids in ascending order; a
	// variable's position in it indexes adj, cost and mark.
	ids []int
	// adj[i] lists, ascending, the live factors that mention variable i.
	// A bucket's result replaces at least one factor in each list it
	// joins, so no list outgrows its initial length.
	adj [][]int
	// cost[i] is the table size eliminating variable i would leave (the
	// product of its neighbours' cardinalities); -1 once it is
	// eliminated, or from the start when the caller keeps it.
	cost []float64
	// mark stamps the neighbours already counted while scoring.
	mark  []int
	epoch int
	// heap orders the candidates by (cost, variable id). Re-scoring
	// pushes a fresh entry; entries whose cost is out of date are
	// skipped when popped.
	heap []candidate
	// prod are the two scratch factors bucket products alternate between.
	prod [2]Factor
}

// refEliminate runs bucket elimination over factors, keeping the variables
// kept reports. The order is greedy by the size of the table each
// elimination leaves, ties going to the smaller variable id, so equal
// inputs give bit-identical outputs; after each bucket only the variables
// that shared a factor with the eliminated one are re-scored.
func refEliminate(g *govern.Governor, factors []*Factor, kept func(v int) bool) (*Factor, error) {
	e := refElimination{work: make([]*Factor, len(factors), 2*len(factors)+1)}
	copy(e.work, factors)
	arity := 0
	for _, f := range factors {
		arity += len(f.vars)
	}
	ints := make([]int, 0, 2*arity)
	for _, f := range factors {
		ints = append(ints, f.vars...)
	}
	sort.Ints(ints)
	n := 0
	for i, v := range ints {
		if i == 0 || v != ints[n-1] {
			ints[n] = v
			n++
		}
	}
	e.ids = ints[:n:n]
	// Adjacency in one backing array: count, carve, fill.
	scratch := make([]int, 2*n)
	e.mark = scratch[:n:n]
	degree := scratch[n:]
	for _, f := range factors {
		for _, v := range f.vars {
			degree[e.local(v)]++
		}
	}
	backing := ints[n:n]
	e.adj = make([][]int, n)
	for i, d := range degree {
		e.adj[i] = backing[len(backing) : len(backing) : len(backing)+d]
		backing = backing[:len(backing)+d]
	}
	for fi, f := range factors {
		for _, v := range f.vars {
			i := e.local(v)
			e.adj[i] = append(e.adj[i], fi)
		}
	}
	e.cost = make([]float64, n)
	e.heap = make([]candidate, 0, n)
	for i, v := range e.ids {
		if kept(v) {
			e.cost[i] = -1
			continue
		}
		e.rescore(i)
	}
	for len(e.heap) > 0 {
		c := e.pop()
		if c.cost != e.cost[c.v] {
			continue // re-scored since, or already eliminated
		}
		if err := g.Err(); err != nil {
			return nil, err
		}
		if err := e.sumOut(g, c.v); err != nil {
			return nil, err
		}
	}
	// Multiply what is left: factors over kept variables and constants.
	var out *Factor
	for fi, f := range e.work {
		switch {
		case f == nil:
		case out == nil && fi >= len(factors):
			out = f
		case out == nil:
			out = f.clone(nil) // never hand a caller's factor back
		default:
			if err := chargeProduct(g, out, f); err != nil {
				return nil, err
			}
			out = Multiply(out, f)
		}
	}
	if out == nil {
		out = NewFactor(nil, nil)
		out.vals[0] = 1
	}
	return out, nil
}

// local returns the position of variable id v in e.ids.
func (e *refElimination) local(v int) int { return sort.SearchInts(e.ids, v) }

// rescore recomputes variable i's elimination cost from the live factors
// that mention it and queues it under the new cost.
func (e *refElimination) rescore(i int) {
	e.epoch++
	cost := 1.0
	for _, fi := range e.adj[i] {
		f := e.work[fi]
		for k, v := range f.vars {
			if j := e.local(v); j != i && e.mark[j] != e.epoch {
				e.mark[j] = e.epoch
				cost *= float64(f.card[k])
			}
		}
	}
	e.cost[i] = cost
	e.push(candidate{cost, i})
}

// sumOut multiplies the bucket of variable i — every live factor that
// mentions it, in creation order — sums the variable out of the product,
// and re-scores the variables the result touches.
func (e *refElimination) sumOut(g *govern.Governor, i int) error {
	e.cost[i] = -1
	bucket := e.adj[i]
	if len(bucket) == 0 {
		return nil
	}
	prod := e.work[bucket[0]]
	for k, fi := range bucket[1:] {
		f := e.work[fi]
		if err := chargeProduct(g, prod, f); err != nil {
			return err
		}
		dst := &e.prod[k%2]
		mulInto(dst, prod, f)
		prod = dst
	}
	for _, fi := range bucket {
		e.work[fi] = nil
	}
	tau := prod.SumOut(e.ids[i])
	ti := len(e.work)
	e.work = append(e.work, tau)
	for _, v := range tau.vars {
		j := e.local(v)
		live := e.adj[j][:0]
		for _, fi := range e.adj[j] {
			if e.work[fi] != nil {
				live = append(live, fi)
			}
		}
		e.adj[j] = append(live, ti)
		if e.cost[j] >= 0 {
			e.rescore(j)
		}
	}
	return nil
}

func (e *refElimination) push(c candidate) {
	h := append(e.heap, c)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

func (e *refElimination) pop() candidate {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		least := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < last && h[child].before(h[least]) {
				least = child
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	e.heap = h
	return top
}

// refRelevant returns the CPTs a query over the seed variables needs, in
// variable order, with room for extra more factors: those of the seeds
// and of all their ancestors. Every other variable is barren — it is not
// an ancestor of anything the query mentions, so summing it out of its own
// normalised CPT gives 1 and, leaves first, the whole rest of the network
// drops out. The seeds slice is consumed.
func (n *Network) refRelevant(seeds []int, extra int) []*Factor {
	seen := make(map[int]struct{}, 2*len(seeds))
	var ids []int
	for stack := seeds; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		ids = append(ids, v)
		stack = append(stack, n.factors[v].vars[1:]...)
	}
	sort.Ints(ids)
	out := make([]*Factor, len(ids), len(ids)+extra)
	for i, v := range ids {
		out[i] = n.factors[v]
	}
	return out
}

// refJoint eliminates every variable but id (none when id < 0) from the CPTs
// relevant to the seeds together with the extra factors, which may only
// mention seed variables and variables of their own.
func (n *Network) refJoint(g *govern.Governor, id int, seeds []int, extra []*Factor) (*Factor, error) {
	factors := append(n.refRelevant(seeds, len(extra)), extra...)
	return refEliminate(g, factors, func(v int) bool { return v == id })
}

// refMarginal eliminates everything but o's variable from the CPTs relevant
// to it.
func (n *Network) refMarginal(ctx context.Context, o model.ObjectID) (id int, f *Factor, err error) {
	id, ok := n.objVar[o]
	if !ok {
		return 0, nil, fmt.Errorf("bayes: unknown object %s", o)
	}
	f, err = n.refJoint(govern.From(ctx), id, []int{id}, nil)
	return id, f, err
}

// refProbExistsCtx is ProbExists with elimination governed by ctx's budget.
func (n *Network) refProbExistsCtx(ctx context.Context, o model.ObjectID) (float64, error) {
	id, f, err := n.refMarginal(ctx, o)
	if err != nil {
		return 0, err
	}
	absent := n.vars[id].StateIndex(Absent)
	if absent < 0 {
		return 1, nil // the root has no absent state
	}
	return 1 - f.vals[absent], nil
}

// refOverlay is one path query's private extension of a shared Network: the
// fresh variables it defines are numbered after the network's own and are
// all boolean (false, true), so only the count and the defining factors
// need storing.
type refOverlay struct {
	gov     *govern.Governor
	next    int // id of the next fresh variable
	factors []*Factor
}

func (q *refOverlay) fresh() int {
	q.next++
	return q.next - 1
}

// term adds the boolean variable "parent y was reached and chose x":
// T = R ∧ (X_y ∋ x), over (T, X_y, R). reached < 0 stands for a parent
// that is certainly reached (the root), and drops R from the factor.
func (q *refOverlay) term(net *Network, yv int, x model.ObjectID, reached int) (int, error) {
	t := q.fresh()
	c := net.vars[yv].Card()
	vars, card := []int{t, yv, reached}, []int{2, c, 2}
	w := 2 // cells per state of X_y: one per value of R
	if reached < 0 {
		vars, card, w = vars[:2], card[:2], 1
	}
	f, err := checkedFactor(q.gov, nil, vars, card)
	if err != nil {
		return 0, err
	}
	chosen := net.includes[yv][x]
	for s := 0; s < c; s++ {
		for r := 0; r < w; r++ {
			// Flat index ((T·c)+s)·w + r; R is true in a state's last cell.
			if r == w-1 && chosen.has(s) {
				f.vals[(c+s)*w+r] = 1
			} else {
				f.vals[s*w+r] = 1
			}
		}
	}
	q.factors = append(q.factors, f)
	return t, nil
}

// or returns a variable that is true exactly when some term is, folding
// the terms left to right through binary OR factors: a flat OR over m
// terms would need 2^(m+1) cells, the chain needs 8 per term.
func (q *refOverlay) or(terms []int) (int, error) {
	acc := terms[0]
	for _, t := range terms[1:] {
		if err := q.gov.Step(int64(len(orTable))); err != nil {
			return 0, err
		}
		z := q.fresh()
		q.factors = append(q.factors, &Factor{vars: []int{z, acc, t}, card: orCard, vals: orTable})
		acc = z
	}
	return acc, nil
}

// refPathProbOn runs the reachability augmentation and elimination for one
// query against the shared network.
func refPathProbOn(ctx context.Context, net *Network, pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	gov := govern.From(ctx)
	n := p.Len()
	if n == 0 {
		if o == "" || o == pi.Root() {
			return 1, nil
		}
		return 0, nil
	}
	g := pi.WeakInstance.Graph()
	targets := []model.ObjectID{o}
	if o == "" {
		targets = p.Targets(g)
	}
	// Backward from the targets: via[i][x] lists the parents x can be
	// reached from by label i. A point query touches only the target's
	// path ancestors, never the level sets of the whole instance.
	via := make([]map[model.ObjectID][]model.ObjectID, n+1)
	for i, frontier := n, targets; i >= 1 && len(frontier) > 0; i-- {
		want := p.Labels[i-1]
		via[i] = make(map[model.ObjectID][]model.ObjectID, len(frontier))
		var next []model.ObjectID
		for _, x := range frontier {
			if _, done := via[i][x]; done {
				continue
			}
			var ps []model.ObjectID
			for _, y := range g.Parents(x) {
				if l, _ := g.Label(y, x); want == pathexpr.Wildcard || l == want {
					ps = append(ps, y)
				}
			}
			via[i][x] = ps
			next = append(next, ps...)
		}
		frontier = next
	}
	// Forward from the root: R_{i,x} exists for the objects some kept
	// parent reaches at level i−1 (the root, at level 0, is certain), as
	// the OR over those parents of "y reached and chose x".
	type levelObj struct {
		level int
		obj   model.ObjectID
	}
	reach := make(map[levelObj]int)
	q := refOverlay{gov: gov, next: len(net.vars)}
	var seeds []int
	for i := 1; i <= n; i++ {
		for _, x := range sortedKeys(via[i]) {
			if err := gov.Err(); err != nil {
				return 0, err
			}
			var terms []int
			for _, y := range via[i][x] {
				reached := -1
				if i == 1 {
					if y != net.root {
						continue
					}
				} else if r, ok := reach[levelObj{i - 1, y}]; ok {
					reached = r
				} else {
					continue
				}
				yv := net.objVar[y]
				t, err := q.term(net, yv, x, reached)
				if err != nil {
					return 0, fmt.Errorf("reachability factor R%d:%s: %w", i, x, err)
				}
				terms = append(terms, t)
				seeds = append(seeds, yv)
			}
			if len(terms) == 0 {
				continue
			}
			r, err := q.or(terms)
			if err != nil {
				return 0, err
			}
			reach[levelObj{i, x}] = r
		}
	}
	// Final event: OR over the matched objects' reach variables.
	var matched []int
	for _, m := range targets {
		if r, ok := reach[levelObj{n, m}]; ok {
			matched = append(matched, r)
		}
	}
	if len(matched) == 0 {
		return 0, nil
	}
	match, err := q.or(matched)
	if err != nil {
		return 0, err
	}
	joint, err := net.refJoint(gov, match, seeds, q.factors)
	if err != nil {
		return 0, err
	}
	// OPF mass is validated only to prob.Tolerance, so normalise.
	total := joint.vals[0] + joint.vals[1]
	if total <= 0 {
		return 0, nil
	}
	return joint.vals[1] / total, nil
}

func sortedKeys[V any](m map[model.ObjectID]V) []model.ObjectID {
	out := make([]model.ObjectID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// refEvidenceFactors builds one indicator factor per piece of evidence and
// returns the variables they constrain.
func (n *Network) refEvidenceFactors(ev Evidence) (fs []*Factor, ids []int, err error) {
	add := func(o model.ObjectID, wantAbsent bool) error {
		id, ok := n.objVar[o]
		if !ok {
			return fmt.Errorf("bayes: unknown object %s in evidence", o)
		}
		v := n.vars[id]
		absentIdx := v.StateIndex(Absent)
		f := NewFactor([]int{id}, []int{v.Card()})
		for s := range f.vals {
			if (s == absentIdx) == wantAbsent {
				f.vals[s] = 1
			}
		}
		fs = append(fs, f)
		ids = append(ids, id)
		return nil
	}
	for _, o := range ev.Exists {
		if err := add(o, false); err != nil {
			return nil, nil, err
		}
	}
	for _, o := range ev.Absent {
		if err := add(o, true); err != nil {
			return nil, nil, err
		}
	}
	return fs, ids, nil
}

// refMarginalGiven computes the marginal distribution of object o conditioned
// on the evidence — the Bayesian-network counterpart of the selection
// operator's renormalization (Definition 5.6), exact on DAGs. It returns
// an error when the evidence has probability zero.
func (n *Network) refMarginalGiven(o model.ObjectID, ev Evidence) (map[string]float64, error) {
	id, ok := n.objVar[o]
	if !ok {
		return nil, fmt.Errorf("bayes: unknown object %s", o)
	}
	evf, ids, err := n.refEvidenceFactors(ev)
	if err != nil {
		return nil, err
	}
	joint, err := n.refJoint(nil, id, append(ids, id), evf)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range joint.vals {
		total += v
	}
	if total <= 0 {
		return nil, fmt.Errorf("bayes: evidence has probability zero")
	}
	out := n.distribution(id, joint)
	for k := range out {
		out[k] /= total
	}
	return out, nil
}
