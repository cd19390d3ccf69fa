package core

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// localInterp is ℘ of Definition 3.10: it maps each non-leaf object to an
// OPF over its potential child sets, and each typed leaf object to a VPF
// over its value domain, by object number. Untyped leaves (which the
// algebra can create; see model.Instance) have no local probability
// function and contribute a unit factor to instance probabilities.
//
// An interpretation is either self-contained or an overlay, whose own
// assignments shadow the base tables it reads through to for every other
// object (see lpfs). Base tables are some self-contained interpretation's
// own (overlays are one level deep), and that interpretation is never
// written again once they are lent.
type localInterp struct {
	opf       lpfs[prob.OPF]
	vpf       lpfs[prob.VPF]
	isOverlay bool

	// lent is set once some overlay has this interpretation's own tables
	// as its base; ProbInstance.writable then stops writing them.
	lent atomic.Bool
}

// lpfs is one kind of local probability function by object number: base,
// and for an overlay the assignments made through it in delta, which
// shadow base. The numbers an instance gives are few and dense, so base is
// a slice; an overlay's delta holds the handful an algebra operator writes.
type lpfs[F any] struct {
	base  []*F
	delta map[int32]*F
}

// get returns the function assigned to object number i; nil when none is.
func (t *lpfs[F]) get(i int32) *F {
	if f, ok := t.delta[i]; ok {
		return f
	}
	if int(i) < len(t.base) {
		return t.base[i]
	}
	return nil
}

// set assigns f to object number i in base, and setDelta in an overlay's
// delta.
func (t *lpfs[F]) set(i int32, f *F) {
	if n := int(i) + 1 - len(t.base); n > 0 {
		t.base = append(t.base, make([]*F, n)...)
	}
	t.base[i] = f
}

func (t *lpfs[F]) setDelta(i int32, f *F) {
	if t.delta == nil {
		t.delta = make(map[int32]*F)
	}
	t.delta[i] = f
}

// overlay returns an interpretation that reads the same assignments as li
// and records its own without touching li's tables. An overlay of an
// overlay copies the delta and shares the base, so chains never grow.
func (li *localInterp) overlay() *localInterp {
	// Load first: concurrent overlays of one published instance would
	// otherwise all write the same cache line.
	if !li.isOverlay && !li.lent.Load() {
		li.lent.Store(true)
	}
	return &localInterp{
		opf:       lpfs[prob.OPF]{base: li.opf.base, delta: maps.Clone(li.opf.delta)},
		vpf:       lpfs[prob.VPF]{base: li.vpf.base, delta: maps.Clone(li.vpf.delta)},
		isOverlay: true,
	}
}

// ProbInstance is a probabilistic instance I = (V, lch, τ, val, card, ℘)
// per Definition 3.11: a weak instance together with a local
// interpretation.
type ProbInstance struct {
	*WeakInstance
	interp *localInterp
}

// NewProbInstance returns a probabilistic instance over a fresh weak
// instance with the given root.
func NewProbInstance(root model.ObjectID) *ProbInstance {
	return FromWeak(NewWeakInstance(root))
}

// FromWeak wraps an existing weak instance with an empty local
// interpretation. The weak instance is used directly, not copied.
func FromWeak(w *WeakInstance) *ProbInstance {
	return &ProbInstance{WeakInstance: w, interp: &localInterp{}}
}

// Weak returns the underlying weak instance.
func (pi *ProbInstance) Weak() *WeakInstance { return pi.WeakInstance }

// writable returns the interpretation SetOPF/SetVPF may write. Once an
// overlay reads through to pi's maps they are frozen, and pi continues as an
// overlay of them itself.
func (pi *ProbInstance) writable() *localInterp {
	if pi.interp.lent.Load() {
		pi.interp = pi.interp.overlay()
	}
	return pi.interp
}

// SetOPF assigns ℘(o) for a non-leaf object. w must not be mutated
// afterwards (see the package comment).
func (pi *ProbInstance) SetOPF(o model.ObjectID, w *prob.OPF) {
	setLPF(pi, &pi.writable().opf, o, w)
	pi.dropChildSets()
}

// SetVPF assigns ℘(o) for a leaf object. w must not be mutated afterwards
// (see the package comment).
func (pi *ProbInstance) SetVPF(o model.ObjectID, w *prob.VPF) {
	setLPF(pi, &pi.writable().vpf, o, w)
}

// setLPF assigns f to o in t, numbering o if it has no number yet (which
// gives the weak instance private tables, as any mutation does).
func setLPF[F any](pi *ProbInstance, t *lpfs[F], o model.ObjectID, f *F) {
	i, ok := pi.num(o)
	if !ok {
		pi.own()
		i = pi.number(o)
	}
	if pi.interp.isOverlay {
		t.setDelta(i, f)
	} else {
		t.set(i, f)
	}
}

// OPF returns ℘(o) for a non-leaf object, nil when unset.
func (pi *ProbInstance) OPF(o model.ObjectID) *prob.OPF {
	if i, ok := pi.num(o); ok {
		return pi.interp.opf.get(i)
	}
	return nil
}

// VPF returns ℘(o) for a leaf object, nil when unset.
func (pi *ProbInstance) VPF(o model.ObjectID) *prob.VPF {
	if i, ok := pi.num(o); ok {
		return pi.interp.vpf.get(i)
	}
	return nil
}

// VPFAt is VPF for an object known by number, such as a vertex of the
// instance's graph (DESIGN §31).
func (pi *ProbInstance) VPFAt(i int32) *prob.VPF { return pi.interp.vpf.get(i) }

// Overlay returns an instance that is observationally a deep copy of pi but
// shares everything with it: the weak-instance tables, the memoized graph
// and tree verdict, and every OPF and VPF. SetOPF/SetVPF on the result
// shadow pi's assignments in a small map of their own, and a structural
// mutation of either handle first gives that handle private tables, so
// neither ever sees the other's later changes. The Section 6 operators
// build their results on it: they rewrite a handful of local functions of
// an input that may be large. See the package comment for the contract
// this rests on.
func (pi *ProbInstance) Overlay() *ProbInstance {
	return &ProbInstance{
		WeakInstance: pi.WeakInstance.overlay(),
		interp:       pi.interp.overlay(),
	}
}

// Clone returns a deep copy of the probabilistic instance, local
// probability functions included; nothing is shared with pi.
func (pi *ProbInstance) Clone() *ProbInstance {
	c := FromWeak(pi.WeakInstance.Clone())
	for i := range pi.names {
		if w := pi.interp.opf.get(int32(i)); w != nil {
			c.interp.opf.set(int32(i), w.Clone())
		}
		if v := pi.interp.vpf.get(int32(i)); v != nil {
			c.interp.vpf.set(int32(i), v.Clone())
		}
	}
	return c
}

// Rename returns a copy with object identifiers substituted per the
// mapping; see WeakInstance.Rename.
func (pi *ProbInstance) Rename(m map[model.ObjectID]model.ObjectID) *ProbInstance {
	rn := func(o model.ObjectID) model.ObjectID {
		if n, ok := m[o]; ok {
			return n
		}
		return o
	}
	w, to := pi.WeakInstance.rename(m)
	out := FromWeak(w)
	for i := range pi.names {
		if w := pi.interp.opf.get(int32(i)); w != nil {
			nw := prob.NewOPF()
			w.Each(func(c sets.Set, p float64) {
				ids := make([]string, c.Len())
				for i, id := range c {
					ids[i] = rn(id)
				}
				nw.Add(sets.NewSet(ids...), p)
			})
			out.interp.opf.set(to[i], nw)
		}
		if v := pi.interp.vpf.get(int32(i)); v != nil {
			out.interp.vpf.set(to[i], v.Clone())
		}
	}
	return out
}

// ValidateLite checks everything Validate checks except PC membership of
// OPF support sets, making it safe for instances whose PC(o) would be huge.
// Specifically: the weak instance is valid and acyclic, every non-leaf
// object has a valid OPF whose support sets are subsets of the object's
// potential children with per-label counts within card and no VPF, every
// typed leaf has a valid VPF supported on its domain, and no leaf has an
// OPF.
func (pi *ProbInstance) ValidateLite() error { return pi.validate(false) }

// Validate performs the full Definition 3.11 check: ValidateLite plus
// membership of every OPF support set in PC(o). Objects with more than
// DefaultPCLimit potential child sets cause an error; use ValidateLite for
// such instances.
func (pi *ProbInstance) Validate() error { return pi.validate(true) }

func (pi *ProbInstance) validate(checkPC bool) error {
	if err := pi.WeakInstance.Validate(); err != nil {
		return err
	}
	if err := pi.CheckAcyclic(); err != nil {
		return err
	}
	var sc supportScratch
	for _, i := range pi.sortedOrder() {
		o, e := pi.names[i], &pi.objs[i]
		w, v := pi.interp.opf.get(i), pi.interp.vpf.get(i)
		if !hasKids(e.groups) {
			if w != nil {
				return fmt.Errorf("core: leaf %s has an OPF", o)
			}
			if e.typ != 0 {
				t := pi.types[pi.typeOf(e)]
				if v == nil {
					return fmt.Errorf("core: typed leaf %s has no VPF", o)
				}
				if err := v.Validate(); err != nil {
					return fmt.Errorf("core: VPF(%s): %w", o, err)
				}
				var err error
				v.Each(func(val string, p float64) {
					if err == nil && p > 0 && !t.Has(val) {
						err = fmt.Errorf("core: VPF(%s) supports value %q outside dom(%s)", o, val, t.Name)
					}
				})
				if err != nil {
					return err
				}
			} else if v != nil {
				return fmt.Errorf("core: untyped leaf %s has a VPF", o)
			}
			continue
		}
		if w == nil {
			return fmt.Errorf("core: non-leaf %s has no OPF", o)
		}
		if v != nil {
			return fmt.Errorf("core: non-leaf %s has a VPF", o)
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("core: OPF(%s): %w", o, err)
		}
		if err := pi.checkOPFSupport(o, e.groups, w, checkPC, &sc); err != nil {
			return err
		}
	}
	return pi.checkFunctionsInV()
}

// supportScratch is what checkOPFSupport reuses across objects: one
// l-child count per edge group of o for the set under test.
type supportScratch struct {
	counts []int
}

// checkOPFSupport verifies every support set of the OPF is structurally
// admissible: members are potential children and per-label counts lie in
// card. With checkPC it additionally verifies exact membership in PC(o).
//
// Support sets and lch(o,l) are canonical and Validate has shown the
// labels' child sets pairwise disjoint, so |c ∩ lch(o,l)| per label counts
// c's l-children, and c has a non-child exactly when the counts fall short
// of |c|; only that failure looks for the member to name.
func (pi *ProbInstance) checkOPFSupport(o model.ObjectID, gs []edgeGroup, w *prob.OPF, checkPC bool, sc *supportScratch) error {
	sc.counts = append(sc.counts[:0], make([]int, len(gs))...)
	var pcKeys map[string]bool
	if checkPC {
		pc, err := pi.PotentialChildSets(o, DefaultPCLimit)
		if err != nil {
			return fmt.Errorf("core: validating OPF(%s): %w", o, err)
		}
		pcKeys = make(map[string]bool, len(pc))
		for _, c := range pc {
			pcKeys[c.Key()] = true
		}
	}
	var err error
	w.Each(func(c sets.Set, p float64) {
		if err != nil || p <= 0 {
			return
		}
		if checkPC && !pcKeys[c.Key()] {
			err = fmt.Errorf("core: OPF(%s) supports %s ∉ PC(%s)", o, c, o)
			return
		}
		claimed := 0
		for i := range gs {
			sc.counts[i] = c.IntersectLen(gs[i].kids)
			claimed += sc.counts[i]
		}
		if claimed != c.Len() {
			for _, m := range c {
				if _, ok := pi.LabelOf(o, m); !ok {
					err = fmt.Errorf("core: OPF(%s) supports %s containing non-child %s", o, c, m)
					return
				}
			}
		}
		for i := range gs {
			// A card without potential children constrains nothing here.
			if iv := gs[i].interval(); len(gs[i].kids) > 0 && !iv.Contains(sc.counts[i]) {
				err = fmt.Errorf("core: OPF(%s) set %s has %d %s-children outside card %v",
					o, c, sc.counts[i], gs[i].label, iv)
				return
			}
		}
	})
	return err
}

// checkFunctionsInV rejects a local probability function assigned to an
// object outside V: nothing that walks V (the encoders, the engine) would
// ever see it, so an instance carrying one is not the instance it encodes
// to. Only numbers outside V can hold one, and usually there are none.
func (pi *ProbInstance) checkFunctionsInV() error {
	if pi.nV == len(pi.names) {
		return nil
	}
	if o, found := outsideV(pi, &pi.interp.opf); found {
		return fmt.Errorf("core: OPF assigned to %s, which is not an object of the instance", o)
	}
	if o, found := outsideV(pi, &pi.interp.vpf); found {
		return fmt.Errorf("core: VPF assigned to %s, which is not an object of the instance", o)
	}
	return nil
}

// outsideV returns the smallest object outside V that t assigns a function
// to.
func outsideV[F any](pi *ProbInstance, t *lpfs[F]) (model.ObjectID, bool) {
	var least model.ObjectID
	found := false
	for i, o := range pi.names {
		if !pi.objs[i].inV && t.get(int32(i)) != nil && (!found || o < least) {
			least, found = o, true
		}
	}
	return least, found
}

// Compatible reports whether the semistructured instance S is compatible
// with the probabilistic instance's weak instance per Definition 4.1. A nil
// error means compatible.
//
// Deviation (documented in the package comment of model): the literal
// definition forbids a weak-instance non-leaf from being childless in S,
// but cardinality minima of zero (used throughout the paper, e.g.
// card(A1, institution) = [0,1] in Figure 2) explicitly permit it, so the
// leaf conditions here apply only to weak-instance leaves.
func (pi *ProbInstance) Compatible(s *model.Instance) error {
	return CompatibleWith(pi.WeakInstance, s)
}

// CompatibleWith is Compatible for a bare weak instance.
func CompatibleWith(w *WeakInstance, s *model.Instance) error {
	if s.Root() != w.Root() {
		return fmt.Errorf("core: instance root %s differs from weak root %s", s.Root(), w.Root())
	}
	for _, o := range s.Objects() {
		if !w.HasObject(o) {
			return fmt.Errorf("core: object %s not in weak instance", o)
		}
		if w.IsLeaf(o) {
			if !s.IsLeaf(o) {
				return fmt.Errorf("core: weak leaf %s has children in instance", o)
			}
			wt, typed := w.TypeOf(o)
			st, styped := s.TypeOf(o)
			if typed != styped {
				return fmt.Errorf("core: leaf %s typed-ness mismatch", o)
			}
			if typed {
				if wt.Name != st.Name {
					return fmt.Errorf("core: leaf %s has type %q, weak instance says %q", o, st.Name, wt.Name)
				}
				v, ok := s.ValueOf(o)
				if !ok {
					return fmt.Errorf("core: typed leaf %s has no value", o)
				}
				if !wt.Has(v) {
					return fmt.Errorf("core: leaf %s value %q outside dom(%s)", o, v, wt.Name)
				}
			}
			continue
		}
		// Non-leaf in W: every instance edge must be sanctioned by lch with
		// a matching label, and per-label counts must respect card.
		counts := make(map[model.Label]int)
		var edgeErr error
		s.Graph().EachChild(o, func(child, label string) {
			if edgeErr != nil {
				return
			}
			if !w.LCh(o, label).Contains(child) {
				edgeErr = fmt.Errorf("core: edge %s -%s-> %s not sanctioned by lch", o, label, child)
				return
			}
			counts[label]++
		})
		if edgeErr != nil {
			return edgeErr
		}
		for _, l := range w.Labels(o) {
			if !w.Card(o, l).Contains(counts[l]) {
				return fmt.Errorf("core: object %s has %d %s-children, card is %v", o, counts[l], l, w.Card(o, l))
			}
		}
	}
	return nil
}

// InstanceProb computes P_℘(S) of Definition 4.4:
// the product over objects o of S of ℘(o)(c_S(o)), where c_S(o) is the set
// of children of o in S for non-leaves and the value of o for typed leaves.
// It returns an error when S is not compatible with the weak instance.
func (pi *ProbInstance) InstanceProb(s *model.Instance) (float64, error) {
	if err := pi.Compatible(s); err != nil {
		return 0, err
	}
	p := 1.0
	for _, o := range s.Objects() {
		if pi.IsLeaf(o) {
			if _, typed := pi.TypeOf(o); typed {
				v, _ := s.ValueOf(o)
				vpf := pi.VPF(o)
				if vpf == nil {
					return 0, fmt.Errorf("core: typed leaf %s has no VPF", o)
				}
				p *= vpf.Prob(v)
			}
			continue
		}
		w := pi.OPF(o)
		if w == nil {
			return 0, fmt.Errorf("core: non-leaf %s has no OPF", o)
		}
		p *= w.Prob(sets.NewSet(s.Children(o)...))
	}
	return p, nil
}

// Depth returns the length of the longest path from the root in the weak
// instance graph, or an error when the graph is cyclic.
func (pi *ProbInstance) Depth() (int, error) {
	g := pi.WeakInstance.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	depth := make(map[model.ObjectID]int, len(order))
	maxDepth := 0
	for _, o := range order {
		for _, c := range g.Children(o) {
			if d := depth[o] + 1; d > depth[c] {
				depth[c] = d
				if d > maxDepth {
					maxDepth = d
				}
			}
		}
	}
	return maxDepth, nil
}

// Stats summarizes a probabilistic instance for tooling: object and edge
// counts of the weak instance graph and the total number of local
// probability entries (the quantity the Figure 7 experiments scale by).
type Stats struct {
	Objects    int
	Edges      int
	Leaves     int
	OPFEntries int
	VPFEntries int
	Depth      int
}

// ComputeStats returns summary statistics of the instance.
func (pi *ProbInstance) ComputeStats() Stats {
	g := pi.WeakInstance.Graph()
	st := Stats{Objects: pi.NumObjects(), Edges: g.NumEdges()}
	for _, o := range pi.Objects() {
		if pi.IsLeaf(o) {
			st.Leaves++
			if v := pi.VPF(o); v != nil {
				st.VPFEntries += v.Len()
			}
			continue
		}
		if w := pi.OPF(o); w != nil {
			st.OPFEntries += w.Len()
		}
	}
	if d, err := pi.Depth(); err == nil {
		st.Depth = d
	}
	return st
}

// SortedOPFObjects returns the non-leaf objects that carry an OPF, sorted.
func (pi *ProbInstance) SortedOPFObjects() []model.ObjectID {
	return carriers(pi, &pi.interp.opf)
}

// SortedVPFObjects returns the leaf objects that carry a VPF, sorted.
func (pi *ProbInstance) SortedVPFObjects() []model.ObjectID {
	return carriers(pi, &pi.interp.vpf)
}

// carriers returns the objects t assigns a function to, sorted.
func carriers[F any](pi *ProbInstance, t *lpfs[F]) []model.ObjectID {
	var out []model.ObjectID
	for i, o := range pi.names {
		if t.get(int32(i)) != nil {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

// Object is what the tables hold for one object of V, as EachObject hands
// it to the passes over every object (the encoders, the governor's
// profile), which would otherwise look each table up by id.
type Object struct {
	ID model.ObjectID
	// Num is the object's number, which the vertices of the instance's
	// graph share (DESIGN §31).
	Num  int32
	Leaf bool
	// Type is τ(o), "" when untyped; Default is val(o) when HasDefault.
	Type       model.TypeName
	Default    model.Value
	HasDefault bool
	OPF        *prob.OPF
	VPF        *prob.VPF
	groups     []edgeGroup
}

// EachLabel calls fn for every label under which the object has potential
// children, in label order, with those children, their numbers in the
// same order and card(o, l).
func (ob Object) EachLabel(fn func(l model.Label, kids sets.Set, nums []int32, card sets.Interval)) {
	for i := range ob.groups {
		if g := &ob.groups[i]; len(g.kids) > 0 {
			fn(g.label, g.kids, g.nums, g.interval())
		}
	}
}

// EachObject calls fn for every object of V in sorted order.
func (pi *ProbInstance) EachObject(fn func(Object)) {
	for _, i := range pi.sortedOrder() {
		e := &pi.objs[i]
		v, hasVal := pi.vals[i]
		fn(Object{ID: pi.names[i], Num: i, Leaf: !hasKids(e.groups), Type: pi.typeOf(e),
			Default: v, HasDefault: hasVal, OPF: pi.interp.opf.get(i), VPF: pi.interp.vpf.get(i), groups: e.groups})
	}
}
