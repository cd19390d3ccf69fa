package algebra

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"pxml/internal/core"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
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
	sw := newStopwatch(sink)

	// Locate: evaluate the path expression and prune to the plan.
	if p.Root != pi.Root() || p.Len() == 0 {
		// Λ_r keeps just the root.
		sw.lap(phaseLocate)
		return bareRoot(pi), nil
	}
	plan := pathexpr.NewPlan(pi.WeakInstance.Graph(), p, nil)
	sw.lap(phaseLocate)
	if plan.IsEmpty() {
		return bareRoot(pi), nil
	}

	// Update ℘ bottom-up: levels n−1 … 0, everything indexed by plan
	// position. eps[pos] is ε of the node there, the probability that it
	// retains at least one surviving child (1 for matched objects).
	u := getUpdater(len(plan.Nodes))
	defer u.release()
	n := p.Len()
	matched, _ := plan.Level(n)
	for pos := matched; pos < len(plan.Nodes); pos++ {
		u.eps[pos] = 1
	}
	// Every OPF is read as bits of its object's row (DESIGN §36).
	view := pi.ChildSets()
	for level := n - 1; level >= 0; level-- {
		lo, hi := plan.Level(level)
		for pos := lo; pos < hi; pos++ {
			nd := plan.Nodes[pos]
			if view.OPF(nd.V) == nil {
				return nil, fmt.Errorf("algebra: non-leaf %s has no OPF", nd.ID)
			}
			var err error
			if u.eps[pos], err = u.survivalUpdate(pos, nd, view, plan.KidsOf(pos)); err != nil {
				return nil, err
			}
		}
	}
	if u.eps[0] > 0 {
		u.seal(plan, matched)
	}
	sw.lap(phaseUpdate)

	// Structure: walk down from the root through the children some
	// supported set of the new OPFs still contains, which strips every
	// object no surviving support set ever reaches, and emit the result
	// with the updated card.
	if u.eps[0] <= 0 {
		sw.lap(phaseStructure)
		return bareRoot(pi), nil
	}
	// The result is assembled through the bulk loader: it is a fresh
	// instance nobody else can see yet, so the per-call graph invalidation
	// of SetLCh/SetCard/AddObject would buy nothing.
	ld := core.NewLoader(pi.Root(), len(plan.Nodes))
	// Only objects above the matched level keep children.
	ld.ExpectParents(matched)
	ld.ShareTypes(pi.WeakInstance)
	// In a forest the walk meets every kept object once, so the loader
	// numbers them without an id table (Loader.Add); elsewhere an object
	// kept under two parents must get one number.
	number := ld.Number
	if pathexpr.NewIndex(pi.WeakInstance.Graph()).Forest() {
		number = ld.Add
	}
	labels, of, alive := u.labels, u.of, u.alive
	// The stack holds (plan position, result number) pairs; the root is
	// the loader's number 0.
	stack := append(u.stack[:0], 0, 0)
	rootKept := false
	for len(stack) > 0 {
		pos, on := int(stack[len(stack)-2]), stack[len(stack)-1]
		stack = stack[:len(stack)-2]
		if pos >= matched {
			// Matched objects are leaves of the result; keep their leaf
			// type and VPF when they had one.
			v := plan.Nodes[pos].V
			if t := pi.TypeNameAt(v); t != "" {
				// Error impossible: type registered above.
				_ = ld.SetLeafType(on, t)
				if vpf := pi.VPFAt(v); vpf != nil {
					ld.SetVPF(on, vpf)
				}
			}
			continue
		}
		w := u.newOPF[pos]
		if w == nil {
			continue
		}
		// One pass over the support of ℘'(o) finds the kept children with a
		// positive marginal and, per label, the fewest and the most of them
		// a supported set holds (the Section 6.1 card′ formulas). The
		// update left each entry's members as a run of indexes into the
		// kept children, so the pass reads those instead of the sets. The
		// plan carries each kept child's label, and its run is in id order,
		// so every per-label subsequence is a canonical set as built.
		kids := plan.KidsOf(pos)
		labels, of, alive = labels[:0], of[:0], append(alive[:0], make([]bool, len(kids))...)
		for _, k := range kids {
			l := slices.IndexFunc(labels, func(lc labelCard) bool { return lc.label == k.Label })
			if l < 0 {
				l = len(labels)
				labels = append(labels, labelCard{label: k.Label, lo: -1})
			}
			of = append(of, int32(l))
		}
		pd := u.pending[pos]
		for k, e := range u.entries[pd.at : int(pd.at)+pd.len()] {
			if e.Prob <= 0 {
				continue
			}
			for _, j := range u.run(pd, k) {
				lc := &labels[of[j]]
				lc.n++
				if !alive[j] {
					alive[j] = true
					lc.kept++
				}
			}
			for l := range labels {
				lc := &labels[l]
				if lc.lo == -1 || lc.n < lc.lo {
					lc.lo = lc.n
				}
				lc.hi, lc.n = max(lc.hi, lc.n), 0
			}
		}
		survivors := 0
		for l, lc := range labels {
			if lc.kept == 0 {
				continue
			}
			cs := u.nums[:0]
			for j, k := range kids {
				if alive[j] && int(of[j]) == l {
					n := number(plan.Nodes[k.Pos].ID)
					ld.Declare(n)
					cs = append(cs, n)
					stack = append(stack, k.Pos, n)
				}
			}
			ld.SetEdges(on, lc.label, cs, lc.lo, lc.hi)
			u.nums = cs
			survivors += lc.kept
		}
		if survivors > 0 {
			ld.SetOPF(on, w)
		}
		rootKept = rootKept || pos == 0 && survivors > 0
	}
	u.labels, u.of, u.alive, u.stack = labels, of, alive, stack
	out, err := ld.Instance()
	if err != nil {
		return nil, fmt.Errorf("algebra: assembling Λ_%s: %w", p, err)
	}
	sw.lap(phaseStructure)
	// If stripping removed every root child, collapse to the bare root.
	if !rootKept {
		return bareRoot(pi), nil
	}
	return out, nil
}

// labelCard is what the structure pass learns about one edge label of one
// node: how many kept children carrying it survive, and card′.
type labelCard struct {
	label  model.Label
	kept   int
	lo, hi int
	n      int // members of the supported set being counted
}

// denseFanout is the most kept children an object may have for its survivor
// sets to be summed in a table indexed by bitmask over those children
// (2^denseFanout float64 cells at most). A wider object's survivor sets are
// listed, sorted and merged instead.
const denseFanout = 12

// updater is the state a projection carries from one object to the next:
// what the update found at each plan position and the scratch each
// object's update and the structure pass reuse. Everything but the two
// slices the result is cut from is scratch, which one projection hands to
// the next through updaterPool (DESIGN §25).
type updater struct {
	eps     []float64   // by plan position
	pending []pending   // by plan position, above the matched level
	newOPF  []*prob.OPF // by plan position: ℘'(o), nil when o keeps no child

	members []int32   // listed: kept children in the entry being spread, as indexes into kids
	sure    []int32   // those that survive surely (ε = 1) ...
	unsure  []int32   // ... and those that may not,
	ueps    []float64 // with their ε
	acc     []float64 // dense: probability by survivor bitmask
	runs    []int32   // survivor sets as runs of ascending indexes into kids
	sets    []survivorSet

	// The structure pass: the distinct edge labels of one node's kept
	// children, of[j] the index in labels of kept child j's label, alive[j]
	// whether some supported set contains kept child j, and the walk's stack.
	labels []labelCard
	of     []int32
	alive  []bool
	stack  []int32
	nums   []int32 // one lch set's object numbers

	// What the result keeps is cut from two slices sized to it once every
	// object is updated: the child sets of the new OPFs and of lch, and the
	// OPFs' entries. They belong to the result and are never pooled.
	ids     []model.ObjectID
	entries []prob.OPFEntry
}

// pending is what the update found for one object, for seal to turn into
// ℘'(o): its canonical survivor sets other than ∅, u.sets[lo:hi], the mass
// of ∅ when ℘' has an entry for it, and what the other masses are divided
// by. live is false when o keeps no child and gets no ℘'.
type pending struct {
	lo, hi   int32
	at       int32 // where seal put ℘'(o)'s entries in u.entries
	empty    float64
	hasEmpty bool
	total    float64
	live     bool
}

// len is the number of entries ℘'(o) has.
func (pd pending) len() int {
	if pd.hasEmpty {
		return int(pd.hi-pd.lo) + 1
	}
	return int(pd.hi - pd.lo)
}

// cut returns a zero-length slice with room for exactly n elements from
// the end of *s, whose capacity the caller sized to hold every cut. The
// capacity stops at n, so appending to one cut never reaches the next.
func cut[T any](s *[]T, n int) []T {
	at := len(*s)
	*s = (*s)[:at+n]
	return (*s)[at : at : at+n]
}

// updaterPool holds updaters between projections. A new one is sized for
// the fan-outs the paper's experiments reach at branching 4 to 6; wider
// objects grow it.
var updaterPool = sync.Pool{New: func() any {
	return &updater{
		members: make([]int32, 0, 16),
		sure:    make([]int32, 0, 16),
		unsure:  make([]int32, 0, 16),
		ueps:    make([]float64, 0, 16),
		runs:    make([]int32, 0, 256),
		sets:    make([]survivorSet, 0, 64),
	}
}}

// maxPooledUpdate bounds the plan positions and survivor runs an updater
// may hold room for and still be pooled, so one huge projection does not
// stay resident behind small ones.
const maxPooledUpdate = 1 << 14

// getUpdater takes an updater from the pool, zeroed for a plan of the given
// number of nodes.
func getUpdater(nodes int) *updater {
	u := updaterPool.Get().(*updater)
	u.eps = append(u.eps[:0], make([]float64, nodes)...)
	u.pending = append(u.pending[:0], make([]pending, nodes)...)
	u.newOPF = append(u.newOPF[:0], make([]*prob.OPF, nodes)...)
	u.runs, u.sets = u.runs[:0], u.sets[:0]
	return u
}

// release gives u back to the pool holding nothing the result keeps: the
// new OPFs and labels are forgotten and the two result slices stay with
// the result.
func (u *updater) release() {
	clear(u.newOPF)
	clear(u.labels[:cap(u.labels)])
	u.ids, u.entries = nil, nil
	if cap(u.eps) > maxPooledUpdate || cap(u.runs) > maxPooledUpdate || cap(u.sets) > maxPooledUpdate {
		return
	}
	updaterPool.Put(u)
}

// survivorSet is runs[lo:hi] with probability p.
type survivorSet struct {
	lo, hi int32
	p      float64
}

// compare orders survivor sets canonically: by size, then by members. kids
// is in id order, so comparing indexes compares ids.
func (u *updater) compare(a, b survivorSet) int {
	if c := cmp.Compare(a.hi-a.lo, b.hi-b.lo); c != 0 {
		return c
	}
	return slices.Compare(u.runs[a.lo:a.hi], u.runs[b.lo:b.hi])
}

// survivalUpdate computes the Section 6.1 update for the object nd at plan
// position pos: for each original OPF entry c, distribute its probability
// over the subsets of the kept children in c that may survive, weighting by
// Π ε_j for survivors and Π (1−ε_j) for kept non-survivors (dropped children
// marginalize away implicitly). Matched children survive surely (ε = 1). It
// records ℘'(o) in u.pending[pos] for seal and returns ε_o = 1 − ℘'(o)(∅):
// for the root ℘' keeps its ∅ mass, the probability that a compatible
// instance has no match; for any other object ℘' is conditioned on some
// child surviving (∅ stays as an explicit zero entry), and there is none
// when no child can survive.
//
// Equal survivor sets are summed in the order the entries emit them and
// ℘'(o) is normalized by a sum in canonical order, so the result is the same
// bit for bit from run to run; seal hands it to prob.OPFFromSorted already
// canonical.
func (u *updater) survivalUpdate(pos int, nd pathexpr.Node, view *core.ChildSets, kids []pathexpr.Kid) (float64, error) {
	base := len(u.sets)
	if len(kids) <= denseFanout {
		u.spreadDense(nd, view, kids)
	} else if err := u.spreadListed(nd, view, kids); err != nil {
		return 0, err
	}

	// ε_o is read off the mass of ∅, which sorts first when any entry
	// emitted it.
	pd := pending{lo: int32(base), hi: int32(len(u.sets)), total: 1, live: true}
	if pd.lo < pd.hi && u.sets[pd.lo].lo == u.sets[pd.lo].hi {
		pd.empty, pd.hasEmpty = u.sets[pd.lo].p, true
		pd.lo++
	}
	eps := 1 - pd.empty
	if pos > 0 {
		if eps <= 0 {
			// o can never retain a surviving child; its parent's update
			// treats it as dead and the structure pass never reaches it.
			return eps, nil
		}
		// Condition on some child surviving: ∅ becomes an explicit zero
		// entry and the rest is rescaled to mass one. The root keeps its ∅
		// mass and is not rescaled.
		pd.empty, pd.hasEmpty, pd.total = 0, true, 0
		for _, s := range u.sets[pd.lo:pd.hi] {
			pd.total += s.p
		}
		if pd.total <= 0 {
			return 0, fmt.Errorf("algebra: normalizing ℘'(%s): prob: cannot normalize OPF with mass %v", nd.ID, pd.total)
		}
	}
	u.pending[pos] = pd
	return eps, nil
}

// spreadDense is the update of an object with at most denseFanout kept
// children: survivor sets are bitmasks over them, summed in u.acc. Each
// entry's kept children are a mask read off its bits; each survivor weight
// is the left-to-right product p·f₀·f₁·… over the uncertain ones in
// ascending order, as the listed update computes it, but taken depth-first
// so that survivor sets sharing a prefix of choices share its product. A
// mask gets at most one weight per entry, so the order within an entry
// changes no sum. The distinct sets leave in canonical order, read off
// canonicalMasks.
func (u *updater) spreadDense(nd pathexpr.Node, view *core.ChildSets, kids []pathexpr.Kid) {
	if need := 1 << len(kids); cap(u.acc) < need {
		u.acc = make([]float64, need)
	} else {
		u.acc = u.acc[:need]
		clear(u.acc)
	}
	// Kept children that survive surely (ε = 1) and those that may not; a
	// dead one (ε = 0) is in neither and marginalizes away like a dropped
	// one.
	var sure, unsure uint16
	for j, k := range kids {
		switch e := u.eps[k.Pos]; {
		case e <= 0:
		case e >= 1:
			sure |= 1 << j
		default:
			unsure |= 1 << j
		}
	}
	var ueps [denseFanout]float64
	var ubit [denseFanout]uint16
	var weight [denseFanout + 1]float64
	var mask [denseFanout + 1]uint16
	view.Each(nd.V, func(c []uint64, p float64) {
		if p <= 0 {
			return
		}
		var in uint16
		for j, k := range kids {
			in |= uint16(c[k.Slot>>6]>>(k.Slot&63)&1) << j
		}
		k := 0
		for rest := in & unsure; rest != 0; rest &= rest - 1 {
			j := bits.TrailingZeros16(rest)
			ueps[k], ubit[k] = u.eps[kids[j].Pos], 1<<j
			k++
		}
		// Choice i survives when bit k−1−i of sub is set, so the last
		// choice varies fastest and sub's trailing zeros say how many of
		// the last choices changed since sub−1.
		weight[0], mask[0] = p, in&sure
		from := 0
		for sub := 0; sub < 1<<k; sub++ {
			if sub > 0 {
				from = k - 1 - bits.TrailingZeros(uint(sub))
			}
			for i := from; i < k; i++ {
				if sub>>(k-1-i)&1 != 0 {
					weight[i+1], mask[i+1] = weight[i]*ueps[i], mask[i]|ubit[i]
				} else {
					weight[i+1], mask[i+1] = weight[i]*(1-ueps[i]), mask[i]
				}
			}
			if weight[k] > 0 {
				u.acc[mask[k]] += weight[k]
			}
		}
	})
	for _, m := range canonicalMasks()[len(kids)] {
		if p := u.acc[m]; p > 0 {
			lo := int32(len(u.runs))
			for rest := m; rest != 0; rest &= rest - 1 {
				u.runs = append(u.runs, int32(bits.TrailingZeros16(rest)))
			}
			u.sets = append(u.sets, survivorSet{lo, int32(len(u.runs)), p})
		}
	}
}

// canonicalMasks returns, for every k ≤ denseFanout, the bitmasks over k
// kept children in the canonical order of the sets they stand for: by size,
// then by members, where the lowest kid in one set and not the other
// decides.
var canonicalMasks = sync.OnceValue(func() [denseFanout + 1][]uint16 {
	var t [denseFanout + 1][]uint16
	for k := range t {
		t[k] = make([]uint16, 1<<k)
		for m := range t[k] {
			t[k][m] = uint16(m)
		}
		slices.SortFunc(t[k], func(a, b uint16) int {
			if c := cmp.Compare(bits.OnesCount16(a), bits.OnesCount16(b)); c != 0 {
				return c
			}
			return cmp.Compare(bits.Reverse16(b), bits.Reverse16(a))
		})
	}
	return t
})

// spreadListed is the update of an object with more than denseFanout kept
// children: each survivor set is listed as a run of ascending indexes into
// kids, and the runs are sorted and merged.
func (u *updater) spreadListed(nd pathexpr.Node, view *core.ChildSets, kids []pathexpr.Kid) error {
	base := len(u.sets)
	var badFanout error
	view.Each(nd.V, func(c []uint64, p float64) {
		if p <= 0 || badFanout != nil {
			return
		}
		// Partition the entry's kept children into sure survivors (ε = 1)
		// and uncertain ones; enumerate survivor subsets of the latter.
		u.members = pathexpr.Members(u.members[:0], kids, c)
		u.sure, u.unsure, u.ueps = u.sure[:0], u.unsure[:0], u.ueps[:0]
		for _, j := range u.members {
			switch e := u.eps[kids[j].Pos]; {
			case e <= 0: // dead child: marginalized away like a dropped one
			case e >= 1:
				u.sure = append(u.sure, j)
			default:
				u.unsure = append(u.unsure, j)
				u.ueps = append(u.ueps, e)
			}
		}
		k := len(u.unsure)
		if k > maxSurvivalFanout {
			badFanout = fmt.Errorf("algebra: survival fanout 2^%d exceeds limit", k)
			return
		}
		for sub := 0; sub < 1<<k; sub++ {
			weight := p
			for i, e := range u.ueps {
				if sub>>i&1 != 0 {
					weight *= e
				} else {
					weight *= 1 - e
				}
			}
			if weight <= 0 {
				continue
			}
			// List the survivors in id order: sure and unsure are both
			// ascending, so a linear merge keeps canonical order.
			lo, si := int32(len(u.runs)), 0
			for i, j := range u.unsure {
				if sub>>i&1 == 0 {
					continue
				}
				for si < len(u.sure) && u.sure[si] < j {
					u.runs = append(u.runs, u.sure[si])
					si++
				}
				u.runs = append(u.runs, j)
			}
			u.runs = append(u.runs, u.sure[si:]...)
			u.sets = append(u.sets, survivorSet{lo, int32(len(u.runs)), weight})
		}
	})
	if badFanout != nil {
		return badFanout
	}
	// Stable, so equal sets stay in emission order and sum in it.
	own := u.sets[base:]
	slices.SortStableFunc(own, u.compare)
	n := 0
	for _, s := range own {
		if n > 0 && u.compare(own[n-1], s) == 0 {
			own[n-1].p += s.p
		} else {
			own[n] = s
			n++
		}
	}
	u.sets = u.sets[:base+n]
	return nil
}

// run returns the members of entry k of ℘'(o), o the object pd records,
// as indexes into its kept children: none for the leading ∅ entry.
func (u *updater) run(pd pending, k int) []int32 {
	if pd.hasEmpty {
		if k == 0 {
			return nil
		}
		k--
	}
	s := u.sets[int(pd.lo)+k]
	return u.runs[s.lo:s.hi]
}

// seal turns what the update recorded for the plan's objects above the
// matched level into their ℘'. It first sizes u.entries and u.ids to the
// whole result, so every OPF is cut from the same two slices, and records
// where each object's entries start for the structure pass.
func (u *updater) seal(plan pathexpr.Plan, matched int) {
	entries, members := 0, 0
	for _, pd := range u.pending[:matched] {
		if !pd.live {
			continue
		}
		entries += pd.len()
		for _, s := range u.sets[pd.lo:pd.hi] {
			members += int(s.hi - s.lo)
		}
	}
	u.entries = make([]prob.OPFEntry, 0, entries)
	u.ids = make([]model.ObjectID, 0, members)
	for pos := range u.pending[:matched] {
		pd := &u.pending[pos]
		if !pd.live {
			continue
		}
		pd.at = int32(len(u.entries))
		kids, es := plan.KidsOf(pos), cut(&u.entries, pd.len())
		if pd.hasEmpty {
			es = append(es, prob.OPFEntry{Prob: pd.empty})
		}
		for _, s := range u.sets[pd.lo:pd.hi] {
			ids := cut(&u.ids, int(s.hi-s.lo))
			for _, j := range u.runs[s.lo:s.hi] {
				ids = append(ids, plan.Nodes[kids[j].Pos].ID)
			}
			es = append(es, prob.OPFEntry{Set: ids, Prob: s.p / pd.total})
		}
		u.newOPF[pos] = prob.OPFFromSorted(es)
	}
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
