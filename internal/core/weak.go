// Package core implements the PXML probabilistic semistructured data model:
// weak instances (Definition 3.4), potential child sets (Definitions
// 3.5–3.6), the weak instance graph and its acyclicity requirement
// (Definitions 3.7 and 4.3), local interpretations (Definitions 3.8–3.10),
// probabilistic instances (Definition 3.11), compatibility of semistructured
// instances (Definition 4.1) and the local-to-global semantics
// P_℘(S) = Π_o ℘(o)(c_S(o)) of Definition 4.4 whose coherence is Theorem 1.
//
// # Sharing
//
// ProbInstance.Overlay returns an instance that shares its receiver's
// weak-instance tables, memoized graph and local probability functions
// instead of copying them, yet behaves as a deep copy: SetOPF/SetVPF on
// either handle are recorded in that handle alone, and the first structural
// mutation of either handle gives it private tables. This rests on one
// contract: an OPF or VPF installed in an instance is never mutated in
// place, only replaced by SetOPF/SetVPF. Build a local probability function
// completely, then install it; to change one, install a modified Clone.
// Like every read of an instance, Overlay may run concurrently with other
// readers; mutating an instance was never safe beside readers and still is
// not.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pxml/internal/graph"
	"pxml/internal/model"
	"pxml/internal/sets"
)

// DefaultPCLimit bounds the number of potential child sets materialized for
// a single object. The paper's experiments use up to 2^8 = 256 entries per
// object; the default leaves ample headroom while preventing accidental
// exponential blowups on adversarial cardinality constraints.
const DefaultPCLimit = 1 << 20

// WeakInstance is W = (V, lch, τ, val, card) per Definition 3.4. It fixes
// which objects exist, which objects may be children of which under which
// label, the leaf types and (default) leaf values, and cardinality bounds
// on the number of children per label.
//
// Two deviations from the letter of the definition, both forced by the
// paper's own examples, are documented where they matter:
//   - leaf types and values are optional (see model.Instance);
//   - PC(o) is the per-label cross product rather than literal minimal
//     hitting sets (see sets.UnionProduct).
type WeakInstance struct {
	root model.ObjectID
	weakTables

	// shared is set while another WeakInstance (see overlay) may be reading
	// the same table maps. Every mutator calls own first, which swaps in a
	// private copy; readers never look at the flag.
	shared atomic.Bool

	// graphMu guards memo: what the instance has already derived from its
	// own tables, so that nobody derives it twice from tables nobody changed.
	graphMu sync.Mutex
	memo    structMemo
}

// structMemo holds the derived facts of a WeakInstance. The zero value
// means "nothing derived yet".
type structMemo struct {
	// graph memoizes the Definition 3.7 weak instance graph: every algebra
	// operation and query starts from it, so rebuilding per call would
	// dominate repeated-query workloads. It is shared with callers and must
	// be treated as read-only.
	graph *graph.Graph
	// shape is read off graph in one pass the first time CheckAcyclic,
	// IsTree or AllReachable asks; shapeKnown says it has been.
	shape      graph.Shape
	shapeKnown bool
	// valid records that Validate passed on the tables as they are.
	valid bool
	// objects is V in sorted order, which every pass over an instance
	// (validation, the encoders, the governor's profile) starts from.
	objects []model.ObjectID
}

// weakTables are the maps behind a WeakInstance, grouped so that an
// overlay can share them and Clone/own can copy them in one step.
type weakTables struct {
	objects map[model.ObjectID]struct{}
	lch     map[model.ObjectID]map[model.Label]sets.Set
	card    map[model.ObjectID]map[model.Label]sets.Interval
	types   map[model.TypeName]model.Type
	typ     map[model.ObjectID]model.TypeName
	val     map[model.ObjectID]model.Value
}

// NewWeakInstance returns a weak instance containing only the root object.
func NewWeakInstance(root model.ObjectID) *WeakInstance {
	w := &WeakInstance{
		root: root,
		weakTables: weakTables{
			objects: make(map[model.ObjectID]struct{}),
			lch:     make(map[model.ObjectID]map[model.Label]sets.Set),
			card:    make(map[model.ObjectID]map[model.Label]sets.Interval),
			types:   make(map[model.TypeName]model.Type),
			typ:     make(map[model.ObjectID]model.TypeName),
			val:     make(map[model.ObjectID]model.Value),
		},
	}
	w.objects[root] = struct{}{}
	return w
}

// Root returns the root object identifier.
func (w *WeakInstance) Root() model.ObjectID { return w.root }

// invalidateGraph drops everything memoized after a mutation of V, lch or
// card: the graph, its shape and Validate's verdict.
func (w *WeakInstance) invalidateGraph() {
	w.graphMu.Lock()
	w.memo = structMemo{}
	w.graphMu.Unlock()
}

// invalidateValid drops Validate's verdict after a mutation of the type
// tables, which the graph does not depend on.
func (w *WeakInstance) invalidateValid() {
	w.graphMu.Lock()
	w.memo.valid = false
	w.graphMu.Unlock()
}

// overlay returns a weak instance that shares w's tables and whatever w has
// memoized so far. Both are marked shared, so whichever is mutated first
// copies the tables for itself and the other keeps seeing what it saw.
func (w *WeakInstance) overlay() *WeakInstance {
	c := &WeakInstance{root: w.root, weakTables: w.weakTables}
	w.graphMu.Lock()
	c.memo = w.memo
	w.graphMu.Unlock()
	c.shared.Store(true)
	// Load first: concurrent overlays of one published instance would
	// otherwise all write the same cache line.
	if !w.shared.Load() {
		w.shared.Store(true)
	}
	return c
}

// own gives w private tables if an overlay shares them. Every mutator calls
// it before its first write.
func (w *WeakInstance) own() {
	if w.shared.Load() {
		w.weakTables = w.weakTables.clone()
		w.shared.Store(false)
	}
}

// AddObject inserts an object into V.
func (w *WeakInstance) AddObject(o model.ObjectID) {
	if _, ok := w.objects[o]; ok {
		return
	}
	w.own()
	w.objects[o] = struct{}{}
	w.invalidateGraph()
}

// HasObject reports whether o ∈ V.
func (w *WeakInstance) HasObject(o model.ObjectID) bool {
	_, ok := w.objects[o]
	return ok
}

// Objects returns V in sorted order. The slice is the caller's to keep.
func (w *WeakInstance) Objects() []model.ObjectID {
	return slices.Clone(w.sortedObjects())
}

// sortedObjects is Objects without the copy: the memoized slice itself,
// which callers must not modify.
func (w *WeakInstance) sortedObjects() []model.ObjectID {
	w.graphMu.Lock()
	defer w.graphMu.Unlock()
	if w.memo.objects == nil {
		out := make([]model.ObjectID, 0, len(w.objects))
		for o := range w.objects {
			out = append(out, o)
		}
		sort.Strings(out)
		w.memo.objects = out
	}
	return w.memo.objects
}

// NumObjects returns |V|.
func (w *WeakInstance) NumObjects() int { return len(w.objects) }

// SetLCh declares lch(o, l) = children: the set of objects that may be
// children of o under label l. All mentioned objects are added to V.
// Passing an empty children list removes the entry.
func (w *WeakInstance) SetLCh(o model.ObjectID, l model.Label, children ...model.ObjectID) {
	w.own()
	w.invalidateGraph()
	w.AddObject(o)
	if len(children) == 0 {
		if m := w.lch[o]; m != nil {
			delete(m, l)
			if len(m) == 0 {
				delete(w.lch, o)
			}
		}
		return
	}
	for _, c := range children {
		w.AddObject(c)
	}
	if w.lch[o] == nil {
		w.lch[o] = make(map[model.Label]sets.Set)
	}
	w.lch[o][l] = sets.NewSet(children...)
}

// LCh returns lch(o, l); nil when empty.
func (w *WeakInstance) LCh(o model.ObjectID, l model.Label) sets.Set {
	return w.lch[o][l]
}

// Labels returns the labels under which o has potential children, sorted.
func (w *WeakInstance) Labels(o model.ObjectID) []model.Label {
	return w.appendLabels(make([]model.Label, 0, len(w.lch[o])), o)
}

// appendLabels is Labels into a caller-owned buffer.
func (w *WeakInstance) appendLabels(dst []model.Label, o model.ObjectID) []model.Label {
	for l := range w.lch[o] {
		dst = append(dst, l)
	}
	sort.Strings(dst)
	return dst
}

// AllChildren returns the union of lch(o, l) over all labels: every object
// that may be a child of o.
func (w *WeakInstance) AllChildren(o model.ObjectID) sets.Set {
	var u sets.Set
	for _, l := range w.Labels(o) {
		u = u.Union(w.lch[o][l])
	}
	return u
}

// LabelOf returns the unique label under which child is a potential child
// of o. The boolean result is false when child is not a potential child.
// Uniqueness is guaranteed by Validate's label-disjointness check; on an
// instance that fails it the smallest matching label is returned.
func (w *WeakInstance) LabelOf(o, child model.ObjectID) (model.Label, bool) {
	var best model.Label
	found := false
	for l, cs := range w.lch[o] {
		if (!found || l < best) && cs.Contains(child) {
			best, found = l, true
		}
	}
	return best, found
}

// SetCard sets card(o, l) = [min, max] (Definition 3.4 item 5).
func (w *WeakInstance) SetCard(o model.ObjectID, l model.Label, min, max int) {
	w.own()
	w.invalidateGraph()
	w.AddObject(o)
	if w.card[o] == nil {
		w.card[o] = make(map[model.Label]sets.Interval)
	}
	w.card[o][l] = sets.Interval{Min: min, Max: max}
}

// Card returns card(o, l). When no interval has been set the default is
// [0, |lch(o, l)|] — the "no cardinality constraint" regime the paper's
// experiments use.
func (w *WeakInstance) Card(o model.ObjectID, l model.Label) sets.Interval {
	if iv, ok := w.card[o][l]; ok {
		return iv
	}
	return sets.Interval{Min: 0, Max: w.lch[o][l].Len()}
}

// IsLeaf reports whether o is a leaf of the weak instance: it has no
// potential children under any label.
func (w *WeakInstance) IsLeaf(o model.ObjectID) bool {
	for _, s := range w.lch[o] {
		if s.Len() > 0 {
			return false
		}
	}
	return true
}

// RegisterType records a leaf type so objects can reference it by name.
func (w *WeakInstance) RegisterType(t model.Type) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if old, ok := w.types[t.Name]; ok {
		if len(old.Domain) != len(t.Domain) {
			return fmt.Errorf("core: type %q re-registered with different domain", t.Name)
		}
		for i := range old.Domain {
			if old.Domain[i] != t.Domain[i] {
				return fmt.Errorf("core: type %q re-registered with different domain", t.Name)
			}
		}
		return nil
	}
	w.own()
	w.invalidateValid()
	w.types[t.Name] = t
	return nil
}

// Types returns the registered types keyed by name. Callers must not mutate
// the returned map.
func (w *WeakInstance) Types() map[model.TypeName]model.Type { return w.types }

// SetLeafType assigns τ(o) = tn. The type must have been registered.
func (w *WeakInstance) SetLeafType(o model.ObjectID, tn model.TypeName) error {
	if _, ok := w.types[tn]; !ok {
		return fmt.Errorf("core: unknown type %q for object %s", tn, o)
	}
	w.own()
	w.invalidateValid()
	w.AddObject(o)
	w.typ[o] = tn
	return nil
}

// SetDefaultValue assigns val(o) = v, the representative leaf value of
// Definition 3.4 item 4. The value must lie in the object's type domain.
func (w *WeakInstance) SetDefaultValue(o model.ObjectID, v model.Value) error {
	tn, ok := w.typ[o]
	if !ok {
		return fmt.Errorf("core: object %s has no type; set one before a default value", o)
	}
	if !w.types[tn].Has(v) {
		return fmt.Errorf("core: value %q outside dom(%s) for object %s", v, tn, o)
	}
	w.own()
	w.invalidateValid()
	w.val[o] = v
	return nil
}

// TypeOf returns τ(o); the boolean result is false for untyped objects.
func (w *WeakInstance) TypeOf(o model.ObjectID) (model.Type, bool) {
	tn, ok := w.typ[o]
	if !ok {
		return model.Type{}, false
	}
	return w.types[tn], true
}

// DefaultValue returns val(o); the boolean result is false when no default
// value was assigned.
func (w *WeakInstance) DefaultValue(o model.ObjectID) (model.Value, bool) {
	v, ok := w.val[o]
	return v, ok
}

// PotentialLChildSets returns PL(o, l), the potential l-child sets of
// Definition 3.5: subsets of lch(o, l) whose cardinality lies within
// card(o, l).
func (w *WeakInstance) PotentialLChildSets(o model.ObjectID, l model.Label) []sets.Set {
	return sets.BoundedSubsets(w.lch[o][l], w.Card(o, l))
}

// PotentialChildSets returns PC(o), the potential child sets of Definition
// 3.6: one potential l-child set chosen per label, unioned. The limit
// bounds the result size; exceeding it is an error. A leaf object has the
// single potential child set ∅.
func (w *WeakInstance) PotentialChildSets(o model.ObjectID, limit int) ([]sets.Set, error) {
	if limit <= 0 {
		limit = DefaultPCLimit
	}
	labels := w.Labels(o)
	total := 1
	fams := make([]sets.Family, 0, len(labels))
	for _, l := range labels {
		n := w.lch[o][l].Len()
		cnt := sets.CountBoundedSubsets(n, w.Card(o, l), limit)
		if total*cnt > limit {
			return nil, fmt.Errorf("core: PC(%s) exceeds limit %d", o, limit)
		}
		total *= cnt
		fams = append(fams, sets.Family(w.PotentialLChildSets(o, l)))
	}
	return sets.UnionProduct(fams), nil
}

// PCSize returns |PC(o)| without materializing the sets, capped at limit
// (returns limit+1 when the true size exceeds it). It assumes the per-label
// potential sets are distinct, which holds because per-label universes are
// disjoint.
func (w *WeakInstance) PCSize(o model.ObjectID, limit int) int {
	if limit <= 0 {
		limit = DefaultPCLimit
	}
	total := 1
	for _, l := range w.Labels(o) {
		n := w.lch[o][l].Len()
		cnt := sets.CountBoundedSubsets(n, w.Card(o, l), limit)
		if cnt > limit || total > limit/max(cnt, 1) {
			return limit + 1
		}
		total *= cnt
	}
	return total
}

// Graph returns the weak instance graph G_W of Definition 3.7: an edge
// o → o' labeled l exists iff o' belongs to some c ∈ PC(o) (under label l).
// The graph is memoized until the next structural mutation and is shared
// between callers: treat it as read-only.
func (w *WeakInstance) Graph() *graph.Graph {
	w.graphMu.Lock()
	defer w.graphMu.Unlock()
	return w.graphLocked()
}

// graphLocked is Graph for callers holding graphMu.
func (w *WeakInstance) graphLocked() *graph.Graph {
	if w.memo.graph == nil {
		w.memo.graph = w.buildGraph()
	}
	return w.memo.graph
}

// shape returns the memoized shape of the weak instance graph, reading it
// off the graph on first use.
func (w *WeakInstance) shape() graph.Shape {
	w.graphMu.Lock()
	defer w.graphMu.Unlock()
	if !w.memo.shapeKnown {
		w.memo.shape = w.graphLocked().Shape(w.root)
		w.memo.shapeKnown = true
	}
	return w.memo.shape
}

// buildGraph constructs the weak instance graph from scratch. A potential
// child of o under label l occurs in some set of PC(o), and so gets its
// edge, when some potential l-child set contains it and no label's family,
// l's included, is empty.
func (w *WeakInstance) buildGraph() *graph.Graph {
	g := graph.NewSized(len(w.objects))
	for o := range w.objects {
		g.AddNode(o)
	}
	for o, m := range w.lch {
		cm := w.card[o]
		// A label whose minimum exceeds its potential children has no
		// potential l-child set at all, which annihilates PC(o).
		satisfiable := true
		for l, iv := range cm {
			if cs, labeled := m[l]; labeled && iv.Min > cs.Len() {
				satisfiable = false
			}
		}
		if !satisfiable {
			continue
		}
		for l, cs := range m {
			if iv, ok := cm[l]; ok && iv.Max < 1 {
				continue
			}
			for _, c := range cs {
				// Relabel conflicts surface in Validate; ignore here.
				_ = g.AddEdge(o, c, l)
			}
		}
	}
	return g
}

// CheckAcyclic reports an error when the weak instance graph contains a
// directed cycle (Definition 4.3 requires acyclicity for coherence).
func (w *WeakInstance) CheckAcyclic() error {
	if w.shape().Acyclic {
		return nil
	}
	// Only the failure pays for a sort that names a vertex on the cycle.
	_, err := w.Graph().TopoSort()
	return fmt.Errorf("core: weak instance not acyclic: %w", err)
}

// IsTree reports whether the weak instance graph is a tree rooted at the
// root: acyclic, every non-root object has exactly one parent, and every
// object is reachable from the root. The Section 6 fast algorithms assume
// this structure. The verdict is memoized with the graph it was read off.
func (w *WeakInstance) IsTree() bool { return w.shape().Tree }

// AllReachable reports whether every object of V is reachable from the root
// in the weak instance graph, from the same memoized pass as IsTree.
func (w *WeakInstance) AllReachable() bool {
	return w.shape().Reachable == len(w.objects)
}

// Validate checks the structural invariants of Definition 3.4: the root
// exists and is not anyone's potential child, lch targets are objects of V,
// an object is a potential child of a given parent under at most one label,
// cardinality intervals are well formed, types are registered with values
// in domain, and only weak-instance leaves carry types. A passing verdict
// is memoized until the next mutation.
func (w *WeakInstance) Validate() error {
	w.graphMu.Lock()
	valid := w.memo.valid
	w.graphMu.Unlock()
	if valid {
		return nil
	}
	if err := w.validate(); err != nil {
		return err
	}
	w.graphMu.Lock()
	w.memo.valid = true
	w.graphMu.Unlock()
	return nil
}

func (w *WeakInstance) validate() error {
	if _, ok := w.objects[w.root]; !ok {
		return fmt.Errorf("core: root %s not in V", w.root)
	}
	seen := make(map[model.ObjectID]model.Label)
	for o, m := range w.lch {
		if _, ok := w.objects[o]; !ok {
			return fmt.Errorf("core: lch parent %s not in V", o)
		}
		// Cross-label duplicates need the seen map; within one label the
		// canonical Set is already duplicate-free, so single-label objects
		// (the common case) skip the bookkeeping entirely.
		multi := len(m) > 1
		if multi {
			clear(seen)
		}
		for l, cs := range m {
			for _, c := range cs {
				if _, ok := w.objects[c]; !ok {
					return fmt.Errorf("core: lch(%s,%s) child %s not in V", o, l, c)
				}
				if c == w.root {
					return fmt.Errorf("core: root %s appears in lch(%s,%s)", w.root, o, l)
				}
				if multi {
					if prev, dup := seen[c]; dup {
						return fmt.Errorf("core: object %s is a potential child of %s under labels %q and %q", c, o, prev, l)
					}
					seen[c] = l
				}
			}
		}
	}
	for o, m := range w.card {
		for l, iv := range m {
			if err := iv.Validate(); err != nil {
				return fmt.Errorf("core: card(%s,%s): %w", o, l, err)
			}
		}
	}
	for o, tn := range w.typ {
		if _, ok := w.types[tn]; !ok {
			return fmt.Errorf("core: object %s has unregistered type %q", o, tn)
		}
		if !w.IsLeaf(o) {
			return fmt.Errorf("core: non-leaf object %s carries leaf type %q", o, tn)
		}
	}
	for o, v := range w.val {
		tn, ok := w.typ[o]
		if !ok {
			return fmt.Errorf("core: object %s has default value but no type", o)
		}
		if !w.types[tn].Has(v) {
			return fmt.Errorf("core: default value %q of %s outside dom(%s)", v, o, tn)
		}
	}
	return nil
}

// Clone returns a deep copy of the weak instance. Child sets are shared
// (immutable by convention); maps are copied.
func (w *WeakInstance) Clone() *WeakInstance {
	return &WeakInstance{root: w.root, weakTables: w.weakTables.clone()}
}

// clone copies every map, including the per-object label maps the mutators
// write into; child sets and types are immutable values and stay shared.
func (t weakTables) clone() weakTables {
	c := weakTables{
		objects: maps.Clone(t.objects),
		lch:     make(map[model.ObjectID]map[model.Label]sets.Set, len(t.lch)),
		card:    make(map[model.ObjectID]map[model.Label]sets.Interval, len(t.card)),
		types:   maps.Clone(t.types),
		typ:     maps.Clone(t.typ),
		val:     maps.Clone(t.val),
	}
	for o, m := range t.lch {
		c.lch[o] = maps.Clone(m)
	}
	for o, m := range t.card {
		c.card[o] = maps.Clone(m)
	}
	return c
}

// Rename returns a copy of the weak instance with object identifiers
// substituted per the mapping (identifiers absent from the map are kept).
// It is used by the Cartesian product to make operand universes disjoint.
func (w *WeakInstance) Rename(m map[model.ObjectID]model.ObjectID) *WeakInstance {
	rn := func(o model.ObjectID) model.ObjectID {
		if n, ok := m[o]; ok {
			return n
		}
		return o
	}
	c := NewWeakInstance(rn(w.root))
	for o := range w.objects {
		c.objects[rn(o)] = struct{}{}
	}
	for o, lm := range w.lch {
		cm := make(map[model.Label]sets.Set, len(lm))
		for l, s := range lm {
			ids := make([]string, s.Len())
			for i, id := range s {
				ids[i] = rn(id)
			}
			cm[l] = sets.NewSet(ids...)
		}
		c.lch[rn(o)] = cm
	}
	for o, lm := range w.card {
		cm := make(map[model.Label]sets.Interval, len(lm))
		for l, iv := range lm {
			cm[l] = iv
		}
		c.card[rn(o)] = cm
	}
	for k, v := range w.types {
		c.types[k] = v
	}
	for k, v := range w.typ {
		c.typ[rn(k)] = v
	}
	for k, v := range w.val {
		c.val[rn(k)] = v
	}
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
