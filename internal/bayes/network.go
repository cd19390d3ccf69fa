package bayes

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/sets"
)

// Absent is the reserved state name for "object does not occur in the
// compatible instance".
const Absent = "⊥"

// Variable is one discrete network variable with named states.
type Variable struct {
	ID     int
	Name   string
	States []string
}

// Card returns the number of states.
func (v Variable) Card() int { return len(v.States) }

// StateIndex returns the index of a named state, or -1.
func (v Variable) StateIndex(name string) int {
	for i, s := range v.States {
		if s == name {
			return i
		}
	}
	return -1
}

// Network is a Bayesian network compiled from a probabilistic instance:
// one variable per object (child-set choice for non-leaves, value for typed
// leaves, presence for untyped leaves) with a CPT factor each. A compiled
// network is immutable: queries read it concurrently and keep their own
// state in an overlay.
type Network struct {
	vars []Variable
	// factors[id] is the CPT of variable id, over id followed by the
	// variables of the object's weak parents. Parents are compiled before
	// their children, so every parent id is smaller than id; each CPT is
	// normalised over id for every parent assignment, which is what lets
	// queries drop the CPTs of variables that are not ancestors of
	// anything they mention (see relevant).
	factors []*Factor
	// objVar maps an object id to its variable id.
	objVar map[model.ObjectID]int
	// includes[id][c] is the set of states of variable id whose child set
	// contains object c (nil when none does).
	includes []map[model.ObjectID]stateSet
	root     model.ObjectID
}

// stateSet is a bitmap over a variable's state indices.
type stateSet []uint64

func (s stateSet) has(st int) bool {
	return st>>6 < len(s) && s[st>>6]>>(uint(st)&63)&1 != 0
}

// Var returns a variable by id.
func (n *Network) Var(id int) Variable { return n.vars[id] }

// VarOf returns the variable id of an object. The boolean result is false
// for unknown objects.
func (n *Network) VarOf(o model.ObjectID) (int, bool) {
	id, ok := n.objVar[o]
	return id, ok
}

// Compile maps a probabilistic instance to its Bayesian network per the
// Section 6 correspondence. Variables are created in topological order of
// the weak instance graph, so every object's weak parents already have
// variables when its CPT is built.
//
// Compile takes no governor: a compiled network is shared by every query
// on the instance, so no one query's budget or cancellation may stop it.
// Each CPT is still size-checked against the hard MaxFactorEntries cap
// BEFORE its table is allocated, so a width-bomb instance fails
// compilation with a typed error instead of allocating an astronomically
// large table.
func Compile(pi *core.ProbInstance) (*Network, error) {
	g := pi.WeakInstance.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("bayes: %w", err)
	}
	net := &Network{
		objVar: make(map[model.ObjectID]int),
		root:   pi.Root(),
	}
	// Only objects reachable from the root matter.
	reach := make(map[model.ObjectID]bool)
	for _, o := range g.ReachableFrom(pi.Root()) {
		reach[o] = true
	}
	for _, o := range order {
		if !reach[o] {
			continue
		}
		isRoot := o == pi.Root()
		var states []string
		var childSets []sets.Set
		var probs []float64
		switch {
		case !pi.IsLeaf(o):
			opf := pi.OPF(o)
			if opf == nil {
				return nil, fmt.Errorf("bayes: non-leaf %s has no OPF", o)
			}
			for _, e := range opf.Entries() {
				if e.Prob <= 0 {
					continue
				}
				states = append(states, "c:"+e.Set.Key())
				childSets = append(childSets, e.Set)
				probs = append(probs, e.Prob)
			}
		default:
			if vpf := pi.VPF(o); vpf != nil {
				for _, e := range vpf.Entries() {
					if e.Prob <= 0 {
						continue
					}
					states = append(states, "v:"+e.Value)
					probs = append(probs, e.Prob)
				}
			} else {
				states = append(states, "present")
				probs = append(probs, 1)
			}
		}
		if !isRoot {
			states = append(states, Absent)
		}
		id := len(net.vars)
		net.vars = append(net.vars, Variable{ID: id, Name: string(o), States: states})
		net.objVar[o] = id
		// Record which states of this variable include each child.
		var inc map[model.ObjectID]stateSet
		if len(childSets) > 0 {
			inc = make(map[model.ObjectID]stateSet)
		}
		for si, cs := range childSets {
			for _, ch := range cs {
				if inc[ch] == nil {
					inc[ch] = make(stateSet, (len(childSets)+63)/64)
				}
				inc[ch][si>>6] |= 1 << (uint(si) & 63)
			}
		}
		net.includes = append(net.includes, inc)

		// CPT: X_o given the weak parents' variables.
		var keptParents []model.ObjectID
		for _, p := range g.Parents(o) {
			if reach[p] {
				keptParents = append(keptParents, p)
			}
		}
		sort.Strings(keptParents)
		fvars := []int{id}
		fcard := []int{len(states)}
		// chosenBy[i] is the set of parent i's states that include o.
		var chosenBy []stateSet
		for _, p := range keptParents {
			pv := net.objVar[p]
			fvars = append(fvars, pv)
			fcard = append(fcard, net.vars[pv].Card())
			chosenBy = append(chosenBy, net.includes[pv][o])
		}
		f, err := checkedFactor(nil, nil, fvars, fcard)
		if err != nil {
			return nil, fmt.Errorf("compiling CPT for %s: %w", o, err)
		}
		fillCPT(f, probs, chosenBy, isRoot)
		net.factors = append(net.factors, f)
	}
	return net, nil
}

// fillCPT writes P(X_o | parents) into the zeroed table f, whose first
// variable is X_o: one column per parent assignment, walked with an
// odometer. When some parent's state includes o (or o is the root) the
// column holds o's local distribution probs over its leading states;
// otherwise all mass sits on the trailing absent state.
func fillCPT(f *Factor, probs []float64, chosenBy []stateSet, isRoot bool) {
	cols := len(f.vals) / f.card[0]
	absent := (f.card[0] - 1) * cols
	parentCard := f.card[1:]
	digit := make([]int, len(parentCard))
	for col := 0; col < cols; col++ {
		present := isRoot
		for i, states := range chosenBy {
			if states.has(digit[i]) {
				present = true
				break
			}
		}
		if present {
			for st, pr := range probs {
				f.vals[st*cols+col] = pr
			}
		} else {
			f.vals[absent+col] = 1
		}
		for j := len(digit) - 1; j >= 0; j-- {
			digit[j]++
			if digit[j] < parentCard[j] {
				break
			}
			digit[j] = 0
		}
	}
}

// relevant returns the CPTs a query over the seed variables w.seeds needs,
// in variable order: those of the seeds and of all their ancestors. Every
// other variable is barren — it is not an ancestor of anything the query
// mentions, so summing it out of its own normalised CPT gives 1 and, leaves
// first, the whole rest of the network drops out. The seeds are consumed.
func (n *Network) relevant(w *workspace) []*Factor {
	w.seen.reset(len(n.vars))
	ids := w.found[:0]
	stack := w.seeds
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !w.seen.add(v) {
			continue
		}
		ids = append(ids, v)
		stack = append(stack, n.factors[v].vars[1:]...)
	}
	w.seeds = stack
	slices.Sort(ids)
	w.found = ids
	out := w.in[:0]
	for _, v := range ids {
		out = append(out, n.factors[v])
	}
	w.in = out
	return out
}

// joint eliminates every variable but id (none when id < 0) from the CPTs
// relevant to the seeds w.seeds together with the extra factors w.extra,
// which may only mention seed variables and variables of their own. The
// result is w's.
func (n *Network) joint(g *govern.Governor, w *workspace, id int) (*Factor, error) {
	w.in = append(n.relevant(w), w.extra...)
	return w.eliminate(g, w.in, func(v int) bool { return v == id })
}

// distribution names the cells of a factor over variable id alone.
func (n *Network) distribution(id int, f *Factor) map[string]float64 {
	out := make(map[string]float64, len(f.vals))
	for st, v := range f.vals {
		out[n.vars[id].States[st]] += v
	}
	return out
}

// Marginal computes the marginal distribution of an object's variable.
func (n *Network) Marginal(o model.ObjectID) (map[string]float64, error) {
	w := acquire()
	defer w.release()
	id, ok := n.objVar[o]
	if !ok {
		return nil, fmt.Errorf("bayes: unknown object %s", o)
	}
	w.seeds = append(w.seeds[:0], id)
	f, err := n.joint(nil, w, id)
	if err != nil {
		return nil, err
	}
	return n.distribution(id, f), nil
}

// ProbExistsCtx returns the probability that object o occurs in a
// compatible instance — the Section 2 scenario 4 query ("the probability
// that a particular author exists"), exact on DAGs — with elimination
// governed by ctx's budget.
//
// An object occurs exactly when some parent occurs and chose a child set
// holding it (Definition 4.4), so the answer is the OR over o's parents y
// of "X_y ∋ o", built from the path lane's term and or factors with the
// parents as seeds. o's own CPT, a table over the product of its parents'
// states, never enters the elimination (DESIGN §18).
func (n *Network) ProbExistsCtx(ctx context.Context, o model.ObjectID) (float64, error) {
	id, ok := n.objVar[o]
	if !ok {
		return 0, fmt.Errorf("bayes: unknown object %s", o)
	}
	parents := n.factors[id].vars[1:]
	if len(parents) == 0 {
		return 1, nil // the root occurs in every compatible instance
	}
	gov := govern.From(ctx)
	w := acquire()
	defer w.release()
	q := overlay{gov: gov, next: len(n.vars), w: w}
	w.extra, w.seeds = w.extra[:0], w.seeds[:0]
	terms := w.terms[:0]
	for _, y := range parents {
		t, err := q.term(n, y, o, -1)
		if err != nil {
			return 0, err
		}
		terms = append(terms, t)
		w.seeds = append(w.seeds, y)
	}
	w.terms = terms
	occurs, err := q.or(terms)
	if err != nil {
		return 0, err
	}
	joint, err := n.joint(gov, w, occurs)
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

// ProbValue returns the probability that typed leaf o occurs with value v.
func (n *Network) ProbValue(o model.ObjectID, v model.Value) (float64, error) {
	m, err := n.Marginal(o)
	if err != nil {
		return 0, err
	}
	return m["v:"+v], nil
}

// PathProb answers a probabilistic point query on an arbitrary acyclic
// instance: the probability that object o satisfies path expression p (or,
// with o == "", that any object does). It augments the compiled network
// with deterministic reachability variables R_{i,x} — "x is reached by the
// first i labels of p" — for the objects on a root-to-match path, then
// eliminates them together with the CPTs they depend on.
func PathProb(pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	if p.Root != pi.Root() {
		return 0, nil
	}
	net, err := Compile(pi)
	if err != nil {
		return 0, err
	}
	return pathProbOn(context.Background(), net, pi, p, o)
}

// PathProbWith is PathProb over a previously compiled network: callers
// holding many queries against one immutable instance compile once and
// reuse. The shared network is never mutated — the path augmentation lives
// in a per-query overlay.
func PathProbWith(net *Network, pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	return PathProbWithCtx(context.Background(), net, pi, p, o)
}

// PathProbWithCtx is PathProbWith under a context-carried resource
// governor: the reachability factors and every elimination product are
// budget-checked before allocation and cancellation is honoured at the
// per-variable loop boundaries.
func PathProbWithCtx(ctx context.Context, net *Network, pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	if p.Root != pi.Root() {
		return 0, nil
	}
	return pathProbOn(ctx, net, pi, p, o)
}

// overlay is one path query's private extension of a shared Network: the
// fresh variables it defines are numbered after the network's own and are
// all boolean (false, true), so only the count and the defining factors
// need storing. The factors are cut from the workspace's arena and
// collected in its extra list.
type overlay struct {
	gov  *govern.Governor
	next int // id of the next fresh variable
	w    *workspace
}

func (q *overlay) fresh() int {
	q.next++
	return q.next - 1
}

// term adds the boolean variable "parent y was reached and chose x":
// T = R ∧ (X_y ∋ x), over (T, X_y, R). reached < 0 stands for a parent
// that is certainly reached (the root), and drops R from the factor.
func (q *overlay) term(net *Network, yv int, x model.ObjectID, reached int) (int, error) {
	t := q.fresh()
	c := net.vars[yv].Card()
	vars, card := [3]int{t, yv, reached}, [3]int{2, c, 2}
	k, w := 3, 2 // k variables; w cells per state of X_y, one per value of R
	if reached < 0 {
		k, w = 2, 1
	}
	f, err := checkedFactor(q.gov, &q.w.arena, vars[:k], card[:k])
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
	q.w.extra = append(q.w.extra, f)
	return t, nil
}

// orCard and orTable are the shared, read-only body of every binary OR
// factor over (Z, A, B): 1 where Z = A ∨ B.
var (
	orCard  = []int{2, 2, 2}
	orTable = []float64{1, 0, 0, 0, 0, 1, 1, 1}
)

// or returns a variable that is true exactly when some term is, folding
// the terms left to right through binary OR factors: a flat OR over m
// terms would need 2^(m+1) cells, the chain needs 8 per term.
func (q *overlay) or(terms []int) (int, error) {
	acc := terms[0]
	for _, t := range terms[1:] {
		if err := q.gov.Step(int64(len(orTable))); err != nil {
			return 0, err
		}
		z := q.fresh()
		vars := q.w.arena.ints(3)
		vars[0], vars[1], vars[2] = z, acc, t
		q.w.extra = append(q.w.extra, q.w.arena.factor(vars, orCard, orTable))
		acc = z
	}
	return acc, nil
}

// pathProbOn runs the reachability augmentation and elimination for one
// query against the shared network.
func pathProbOn(ctx context.Context, net *Network, pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) (float64, error) {
	gov := govern.From(ctx)
	n := p.Len()
	if n == 0 {
		if o == "" || o == pi.Root() {
			return 1, nil
		}
		return 0, nil
	}
	w := acquire()
	defer w.release()
	g := pi.WeakInstance.Graph()
	// Objects the network does not hold are not reachable from the root,
	// and neither is anything above them, so they cannot match.
	targets := w.targets[:0]
	if o != "" {
		if x, ok := net.objVar[o]; ok {
			targets = append(targets, x)
		}
	} else {
		for _, m := range p.Targets(g) {
			if x, ok := net.objVar[m]; ok {
				targets = append(targets, x)
			}
		}
	}
	w.targets = targets
	// Backward from the targets: level i of via lists the objects the
	// walk meets at depth i, each with the parents it can be reached from
	// by label i — read off its CPT, which names exactly its parents the
	// root reaches. A point query touches only the target's path
	// ancestors, never the level sets of the whole instance.
	w.via, w.par = w.via[:0], w.par[:0]
	w.level = slices.Grow(w.level[:0], n+1)[:n+1]
	frontier := targets
	for i := n; i >= 1; i-- {
		want := p.Labels[i-1]
		w.seen.reset(len(net.vars))
		w.level[i].lo = len(w.via)
		next := len(w.par) // where the next level's frontier starts
		for _, x := range frontier {
			if !w.seen.add(x) {
				continue
			}
			lo := len(w.par)
			for _, y := range net.factors[x].vars[1:] {
				if l, _ := g.Label(net.vars[y].Name, net.vars[x].Name); want == pathexpr.Wildcard || l == want {
					w.par = append(w.par, y)
				}
			}
			w.via = append(w.via, viaEntry{x, lo, len(w.par)})
		}
		w.level[i].hi = len(w.via)
		frontier = w.par[next:]
	}
	// Forward from the root: R_{i,x} exists for the objects some kept
	// parent reaches at level i−1 (the root, at level 0, is certain), as
	// the OR over those parents of "y reached and chose x". Each level is
	// taken in object-id order, which fixes the fresh variables' numbers.
	rootVar := net.objVar[net.root]
	q := overlay{gov: gov, next: len(net.vars), w: w}
	w.extra, w.seeds = w.extra[:0], w.seeds[:0]
	for i := 1; i <= n; i++ {
		prev, cur := &w.reach[(i-1)&1], &w.reach[i&1]
		cur.reset(len(net.vars))
		level := w.via[w.level[i].lo:w.level[i].hi]
		slices.SortFunc(level, func(a, b viaEntry) int {
			return strings.Compare(net.vars[a.x].Name, net.vars[b.x].Name)
		})
		for _, e := range level {
			if err := gov.Err(); err != nil {
				return 0, err
			}
			x := net.vars[e.x].Name
			terms := w.terms[:0]
			for _, y := range w.par[e.lo:e.hi] {
				reached := -1
				if i == 1 {
					if y != rootVar {
						continue
					}
				} else if r, ok := prev.get(y); ok {
					reached = r
				} else {
					continue
				}
				t, err := q.term(net, y, x, reached)
				if err != nil {
					return 0, fmt.Errorf("reachability factor R%d:%s: %w", i, x, err)
				}
				terms = append(terms, t)
				w.seeds = append(w.seeds, y)
			}
			w.terms = terms
			if len(terms) == 0 {
				continue
			}
			r, err := q.or(terms)
			if err != nil {
				return 0, err
			}
			cur.put(e.x, r)
		}
	}
	// Final event: OR over the matched objects' reach variables.
	matched := w.terms[:0]
	for _, m := range targets {
		if r, ok := w.reach[n&1].get(m); ok {
			matched = append(matched, r)
		}
	}
	w.terms = matched
	if len(matched) == 0 {
		return 0, nil
	}
	match, err := q.or(matched)
	if err != nil {
		return 0, err
	}
	joint, err := net.joint(gov, w, match)
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

// Evidence asserts facts about objects when querying: each listed object
// is required to occur (Exists) or to be absent (Absent) in the compatible
// instance.
type Evidence struct {
	Exists []model.ObjectID
	Absent []model.ObjectID
}

// evidenceFactors cuts one indicator factor per piece of evidence from
// w's arena into w.extra and puts the variables they constrain in w.seeds.
func (n *Network) evidenceFactors(w *workspace, ev Evidence) error {
	w.extra, w.seeds = w.extra[:0], w.seeds[:0]
	add := func(o model.ObjectID, wantAbsent bool) error {
		id, ok := n.objVar[o]
		if !ok {
			return fmt.Errorf("bayes: unknown object %s in evidence", o)
		}
		v := n.vars[id]
		absentIdx := v.StateIndex(Absent)
		f := w.arena.newFactor([]int{id}, []int{v.Card()})
		for s := range f.vals {
			if (s == absentIdx) == wantAbsent {
				f.vals[s] = 1
			}
		}
		w.extra = append(w.extra, f)
		w.seeds = append(w.seeds, id)
		return nil
	}
	for _, o := range ev.Exists {
		if err := add(o, false); err != nil {
			return err
		}
	}
	for _, o := range ev.Absent {
		if err := add(o, true); err != nil {
			return err
		}
	}
	return nil
}

// ProbEvidence returns the probability that all the evidence holds.
func (n *Network) ProbEvidence(ev Evidence) (float64, error) {
	w := acquire()
	defer w.release()
	if err := n.evidenceFactors(w, ev); err != nil {
		return 0, err
	}
	joint, err := n.joint(nil, w, -1)
	if err != nil {
		return 0, err
	}
	return joint.Scalar()
}

// MarginalGiven computes the marginal distribution of object o conditioned
// on the evidence — the Bayesian-network counterpart of the selection
// operator's renormalization (Definition 5.6), exact on DAGs. It returns
// an error when the evidence has probability zero.
func (n *Network) MarginalGiven(o model.ObjectID, ev Evidence) (map[string]float64, error) {
	id, ok := n.objVar[o]
	if !ok {
		return nil, fmt.Errorf("bayes: unknown object %s", o)
	}
	w := acquire()
	defer w.release()
	if err := n.evidenceFactors(w, ev); err != nil {
		return nil, err
	}
	w.seeds = append(w.seeds, id)
	joint, err := n.joint(nil, w, id)
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

// ProbExistsGiven returns P(o exists | evidence).
func (n *Network) ProbExistsGiven(o model.ObjectID, ev Evidence) (float64, error) {
	m, err := n.MarginalGiven(o, ev)
	if err != nil {
		return 0, err
	}
	return 1 - m[Absent], nil
}
