package algebra

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/gen"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// This file keeps the ancestor projection AncestorProjectTimed replaced —
// survivalUpdate with a survivor slice and a keyed Add per (entry × mask),
// cardBounds and LabelOf per child, maps keyed by object id throughout —
// verbatim but for the ref prefix and the maps it reads the plan from, as
// the reference the dense update is held to.

// refSurvivalUpdate computes the Section 6.1 update for one object: for each
// original OPF entry c, distribute its probability over the subsets of the
// kept children in c that may survive, weighting by Π ε_j for survivors and
// Π (1−ε_j) for kept non-survivors (dropped children marginalize away
// implicitly). Matched children survive surely (ε = 1).
func refSurvivalUpdate(opf *prob.OPF, kept []model.ObjectID, matched map[model.ObjectID]bool, eps map[model.ObjectID]float64) (*prob.OPF, error) {
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

// refCardBounds computes the updated cardinality of label l at object o: the
// min and max count of l-labeled children over the support of the new OPF
// (the Section 6.1 card′ formulas).
func refCardBounds(w *prob.OPF, pi *core.ProbInstance, o model.ObjectID, l model.Label) (int, int) {
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

// refAncestorProject is AncestorProjectTimed as it was, minus the stopwatch.
// The plan's level sets, kept children and matched set are rebuilt as the
// maps it read from the flat plan (itself held to its own reference in
// pathexpr).
func refAncestorProject(pi *core.ProbInstance, p pathexpr.Path) (*core.ProbInstance, error) {
	if p.Root != pi.Root() || p.Len() == 0 {
		return bareRoot(pi), nil
	}
	plan := pathexpr.NewPlan(pi.WeakInstance.Graph(), p, nil)
	if plan.IsEmpty() {
		return bareRoot(pi), nil
	}
	n := p.Len()
	keep := make([]map[model.ObjectID]bool, n+1)
	keptChildren := make(map[model.ObjectID][]model.ObjectID)
	for level := range keep {
		keep[level] = map[model.ObjectID]bool{}
		lo, hi := plan.Level(level)
		for pos := lo; pos < hi; pos++ {
			keep[level][plan.Nodes[pos].ID] = true
			for _, k := range plan.KidsOf(pos) {
				keptChildren[plan.Nodes[pos].ID] = append(keptChildren[plan.Nodes[pos].ID], plan.Nodes[k.Pos].ID)
			}
		}
	}
	matched := keep[n]

	eps := make(map[model.ObjectID]float64, len(keptChildren))
	newOPF := make(map[model.ObjectID]*prob.OPF, len(keptChildren))
	for level := n - 1; level >= 0; level-- {
		for o := range keep[level] {
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
			w, err := refSurvivalUpdate(opf, kc, matched, eps)
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

	// Structure (final): strip objects that no surviving support set ever
	// contains, then emit the result instance with updated card.
	rootOPF := newOPF[pi.Root()]
	if rootOPF == nil || 1-rootOPF.Prob(nil) <= 0 {
		return bareRoot(pi), nil
	}
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
				_ = ld.SetLeafType(ld.Number(o), t.Name)
				if v := pi.VPF(o); v != nil {
					ld.SetVPF(ld.Number(o), v)
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
				ld.Declare(ld.Number(ch))
				stack = append(stack, ch)
			}
		}
		if len(perLabel) == 0 {
			continue
		}
		for l, cs := range perLabel {
			lo, hi := refCardBounds(w, pi, o, l)
			nums := make([]int32, len(cs))
			for i, c := range cs {
				nums[i] = ld.Number(c)
			}
			ld.SetEdges(ld.Number(o), l, nums, lo, hi)
		}
		ld.SetOPF(ld.Number(o), w)
	}
	out, err := ld.Instance()
	if err != nil {
		return nil, fmt.Errorf("algebra: assembling Λ_%s: %w", p, err)
	}
	// If stripping removed every root child, collapse to the bare root.
	if out.IsLeaf(out.Root()) {
		return bareRoot(pi), nil
	}
	return out, nil
}

// checkAgainstReference holds AncestorProject on (pi, p) to the reference:
// the same error text, or results equal with no tolerance at all — the dense
// update multiplies and sums in the reference's order — and still valid.
func checkAgainstReference(t *testing.T, pi *core.ProbInstance, p pathexpr.Path) *core.ProbInstance {
	t.Helper()
	got, err := AncestorProject(pi, p)
	want, refErr := refAncestorProject(pi, p)
	if err != nil || refErr != nil {
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("Λ_%s: error %v, reference error %v", p, err, refErr)
		}
		return nil
	}
	if !core.Equal(got, want, 0) {
		t.Fatalf("Λ_%s differs from the reference", p)
	}
	if err := got.ValidateLite(); err != nil {
		t.Fatalf("Λ_%s invalid: %v", p, err)
	}
	checkCanonical(t, p, got)
	return got
}

// checkCanonical requires every OPF of Λ_p's result to hold its entries in
// strict canonical order — by set size, then by members, no set twice —
// which seal emits by construction and prob.SealedOPF adopts unchecked.
func checkCanonical(t *testing.T, p pathexpr.Path, got *core.ProbInstance) {
	t.Helper()
	for _, o := range got.SortedOPFObjects() {
		es := got.OPF(o).Entries()
		for i := 1; i < len(es); i++ {
			a, b := es[i-1].Set, es[i].Set
			if c := cmp.Compare(len(a), len(b)); c > 0 || c == 0 && slices.Compare(a, b) >= 0 {
				t.Fatalf("Λ_%s: ℘'(%s) holds %v before %v, not in strict canonical order", p, o, a, b)
			}
		}
	}
}

// perturb rewrites a few OPFs of a generated tree so that the update meets
// what random weights never produce: a child no supported set contains (a
// zero-probability branch), an object whose children are all certain (so its
// own ε can reach 1), and an object that is certainly childless.
func perturb(pi *core.ProbInstance, r *rand.Rand) {
	for _, o := range pi.SortedOPFObjects() {
		opf := pi.OPF(o)
		children := pi.AllChildren(o)
		w := prob.NewOPF()
		switch r.Intn(6) {
		case 0: // children[0] never occurs; the rest keep their weights, renormalized
			opf.Each(func(c sets.Set, pr float64) {
				if c.Contains(children[0]) {
					pr = 0
				}
				w.Put(c, pr)
			})
			if w.Normalize() != nil {
				continue
			}
		case 1: // every child, certainly
			w.Put(children, 1)
		case 2: // no child, certainly — except at the root, which keeps the instance non-trivial
			if o == pi.Root() {
				continue
			}
			w.Put(nil, 1)
		default:
			continue
		}
		pi.SetOPF(o, w)
	}
}

// TestAncestorProjectMatchesReference runs the differential on generated
// trees under both labelings, branching 2–6, with perturbed OPFs, for a
// full-depth query, the same with one step a wildcard, and a prefix of it.
func TestAncestorProjectMatchesReference(t *testing.T) {
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		for branch := 2; branch <= 6; branch++ {
			for seed := int64(1); seed <= 6; seed++ {
				depth := 2 + int(seed%2)
				in := genTree(t, depth, branch, lab, seed)
				r := rand.New(rand.NewSource(seed))
				perturb(in.PI, r)
				p, ok := in.RandomQuery(r)
				if !ok {
					continue
				}
				wild := pathexpr.Path{Root: p.Root, Labels: append([]model.Label(nil), p.Labels...)}
				wild.Labels[r.Intn(len(wild.Labels))] = pathexpr.Wildcard
				for _, q := range []pathexpr.Path{p, wild, {Root: p.Root, Labels: p.Labels[:1]}} {
					checkAgainstReference(t, in.PI, q)
				}
			}
		}
	}
}

// TestAncestorProjectMatchesWorldSum checks the same perturbed trees, where
// small enough to enumerate, against Theorem 1's sum over worlds.
func TestAncestorProjectMatchesWorldSum(t *testing.T) {
	const limit = 1 << 15
	checked := 0
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		for branch := 2; branch <= 3; branch++ {
			for seed := int64(1); seed <= 8; seed++ {
				in, err := gen.Generate(gen.Config{Depth: 2, Branch: branch, Labeling: lab, LeafDomainSize: 1, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				perturb(in.PI, r)
				p, ok := in.RandomQuery(r)
				if !ok {
					continue
				}
				wild := pathexpr.Path{Root: p.Root, Labels: []model.Label{p.Labels[0], pathexpr.Wildcard}}
				for _, q := range []pathexpr.Path{p, wild} {
					naive, err := AncestorProjectGlobal(in.PI, q, limit)
					if err != nil {
						continue // too many worlds
					}
					fast := checkAgainstReference(t, in.PI, q)
					induced, err := enumerate.Enumerate(fast, limit)
					if err != nil {
						t.Fatal(err)
					}
					if !induced.Equal(naive, 1e-9) {
						t.Fatalf("%s branch %d seed %d: Λ_%s diverges from the world sum", lab, branch, seed, q)
					}
					checked++
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d cases were small enough to enumerate", checked)
	}
}

// wideTree builds r -x-> c00…c(n-1) -z-> leaves: each c's only child occurs
// with probability half, except every seventh c, whose child is certain; ten
// more children of r under label y are there to be dropped. The entries of
// r's OPF are whatever sets the caller puts.
func wideTree(t *testing.T, n int, entries func(xs, ys sets.Set) *prob.OPF) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance("r")
	var xs, ys sets.Set
	for i := 0; i < n; i++ {
		c, leaf := fmt.Sprintf("c%02d", i), fmt.Sprintf("l%02d", i)
		xs = append(xs, c)
		pi.SetLCh(c, "z", leaf)
		w := prob.NewOPF()
		if i%7 == 0 {
			w.Put(sets.NewSet(leaf), 1)
		} else {
			w.Put(nil, 0.5)
			w.Put(sets.NewSet(leaf), 0.5)
		}
		pi.SetOPF(c, w)
	}
	for i := 0; i < 10; i++ {
		ys = append(ys, fmt.Sprintf("y%d", i))
	}
	pi.SetLCh("r", "x", xs...)
	pi.SetLCh("r", "y", ys...)
	pi.SetOPF("r", entries(xs, ys))
	if err := pi.ValidateLite(); err != nil { // PC(r) is far too large to list
		t.Fatal(err)
	}
	return pi
}

// TestAncestorProjectWideFanout: an object with 70 kept children is past
// what a bitmask holds, and one with 13 past what the table is sized for;
// their survivor sets are listed, sorted and merged, and entries that differ
// only in dropped children still collapse. 12 is the widest the table takes.
func TestAncestorProjectWideFanout(t *testing.T) {
	for _, n := range []int{denseFanout, denseFanout + 1, 70} {
		survivors := map[model.ObjectID]bool{}
		pi := wideTree(t, n, func(xs, ys sets.Set) *prob.OPF {
			put := func(w *prob.OPF, pr float64, dropped sets.Set, kept ...int) {
				c := dropped
				for _, i := range kept {
					c = c.Union(sets.NewSet(xs[i]))
					survivors[xs[i]] = true
				}
				w.Put(c, pr)
			}
			w := prob.NewOPF()
			put(w, 0.125, nil, 0, 7, n-1)                // two certain, one uncertain
			put(w, 0.125, sets.NewSet(ys[3]), 0, 7, n-1) // the same but for a dropped child
			put(w, 0.25, sets.NewSet(ys[0]), 1, 2, 3, n-6)
			put(w, 0.125, nil, 1, 2) // a subset of those
			put(w, 0.125, sets.NewSet(ys[1], ys[2]))
			put(w, 0.25, nil, n/2, n-2)
			w.Put(xs, 0) // every child, never
			return w
		})
		out := checkAgainstReference(t, pi, pathexpr.MustParse("r.x.z"))
		if out.NumObjects() != 1+2*len(survivors) {
			t.Errorf("%d children: result has %d objects, want the root, %d survivors and their leaves", n, out.NumObjects(), len(survivors))
		}
		checkAgainstReference(t, pi, pathexpr.MustParse("r.x"))
		checkAgainstReference(t, pi, pathexpr.MustParse("r.*"))
	}
}

// TestAncestorProjectFanoutRefused: one entry with 25 uncertain kept
// children asks for 2^25 survivor sets and is refused, with the error the
// reference gives.
func TestAncestorProjectFanoutRefused(t *testing.T) {
	pi := wideTree(t, 30, func(xs, _ sets.Set) *prob.OPF {
		w := prob.NewOPF()
		w.Put(xs, 1) // 30 children, of which 5 have a certain child
		return w
	})
	checkAgainstReference(t, pi, pathexpr.MustParse("r.x.z"))
	if _, err := AncestorProject(pi, pathexpr.MustParse("r.x.z")); err == nil || err.Error() != "algebra: survival fanout 2^25 exceeds limit" {
		t.Fatalf("25 uncertain children: error %v", err)
	}
}

// TestTimedAndUntimedProjectionAgree: a nil sink skips the clock and nothing
// else — the timed and the untimed call return equal results, and only the
// timed one records anything.
func TestTimedAndUntimedProjectionAgree(t *testing.T) {
	in := genTree(t, 4, 4, gen.SL, 1)
	p, ok := in.RandomQuery(rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("no satisfiable query")
	}
	var tm Timings
	timed, err := AncestorProjectTimed(in.PI, p, &tm)
	if err != nil {
		t.Fatal(err)
	}
	untimed, err := AncestorProjectTimed(in.PI, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Equal(timed, untimed, 0) {
		t.Error("timed and untimed projections differ")
	}
	if tm.Locate <= 0 || tm.Update <= 0 || tm.Structure <= 0 || tm.Copy != 0 {
		t.Errorf("timings = %+v", tm)
	}

	o := p.Targets(in.PI.WeakInstance.Graph())[0]
	cond := ObjectCondition{Path: p, Object: o}
	tm = Timings{}
	timedSel, tp, err := SelectTimed(in.PI, cond, &tm)
	if err != nil {
		t.Fatal(err)
	}
	untimedSel, up, err := SelectTimed(in.PI, cond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp != up || !core.Equal(timedSel, untimedSel, 0) {
		t.Error("timed and untimed selections differ")
	}
	if tm.Copy <= 0 || tm.Locate <= 0 || tm.Update <= 0 || tm.Structure != 0 {
		t.Errorf("timings = %+v", tm)
	}
}
