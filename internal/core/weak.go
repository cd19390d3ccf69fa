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
	"strings"
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
	// edges holds lch and card: per object, one group per label, sorted by
	// label. A slice stored here is never written again — a mutator stores a
	// fresh one — so copying the map copies the tables (DESIGN §25).
	edges map[model.ObjectID][]edgeGroup
	types map[model.TypeName]model.Type
	typ   map[model.ObjectID]model.TypeName
	val   map[model.ObjectID]model.Value
}

// edgeGroup is lch(o, label) with card(o, label) when one was set. A group
// without kids keeps a card set for a label that has no potential children;
// a group with neither is not stored, nor is the default interval.
type edgeGroup struct {
	label   model.Label
	kids    sets.Set
	card    sets.Interval
	hasCard bool
}

// interval is card(o, label): the stored one, or the default [0, |kids|].
func (g *edgeGroup) interval() sets.Interval {
	if g.hasCard {
		return g.card
	}
	return sets.Interval{Min: 0, Max: g.kids.Len()}
}

// findGroup returns where the group for l is, or would be inserted, in gs.
func findGroup(gs []edgeGroup, l model.Label) (int, bool) {
	return slices.BinarySearchFunc(gs, l, func(g edgeGroup, l model.Label) int { return strings.Compare(g.label, l) })
}

// hasKids reports whether some group of gs has potential children.
func hasKids(gs []edgeGroup) bool {
	for i := range gs {
		if len(gs[i].kids) > 0 {
			return true
		}
	}
	return false
}

// group returns o's group for l; nil when there is none.
func (t *weakTables) group(o model.ObjectID, l model.Label) *edgeGroup {
	gs := t.edges[o]
	if i, ok := findGroup(gs, l); ok {
		return &gs[i]
	}
	return nil
}

// withGroup returns gs with g in place of the group for g.label: inserted
// in label order when gs has none, removed when g holds neither kids nor a
// card. It writes gs's array, so a caller whose gs may be shared passes a
// copy.
func withGroup(gs []edgeGroup, g edgeGroup) []edgeGroup {
	i, found := findGroup(gs, g.label)
	switch keep := len(g.kids) > 0 || g.hasCard; {
	case found && keep:
		gs[i] = g
	case found:
		gs = slices.Delete(gs, i, i+1)
	case keep:
		gs = slices.Insert(gs, i, g)
	}
	return gs
}

// setGroups records gs as o's groups; no groups, no entry.
func (t *weakTables) setGroups(o model.ObjectID, gs []edgeGroup) {
	if len(gs) == 0 {
		delete(t.edges, o)
	} else {
		t.edges[o] = gs
	}
}

// putGroup is withGroup on o's groups for the mutators: the stored slice
// is a new one, and the one it replaces, which an overlay or a clone may
// share, is not written.
func (t *weakTables) putGroup(o model.ObjectID, g edgeGroup) {
	t.setGroups(o, withGroup(slices.Clone(t.edges[o]), g))
}

// NewWeakInstance returns a weak instance containing only the root object.
func NewWeakInstance(root model.ObjectID) *WeakInstance {
	w := &WeakInstance{
		root: root,
		weakTables: weakTables{
			objects: make(map[model.ObjectID]struct{}),
			edges:   make(map[model.ObjectID][]edgeGroup),
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
	for _, c := range children {
		w.AddObject(c)
	}
	g := edgeGroup{label: l, kids: sets.NewSet(children...)}
	if old := w.group(o, l); old != nil {
		g.card, g.hasCard = old.card, old.hasCard
	}
	w.putGroup(o, g)
}

// LCh returns lch(o, l); nil when empty.
func (w *WeakInstance) LCh(o model.ObjectID, l model.Label) sets.Set {
	if g := w.group(o, l); g != nil {
		return g.kids
	}
	return nil
}

// Labels returns the labels under which o has potential children, sorted.
func (w *WeakInstance) Labels(o model.ObjectID) []model.Label {
	gs := w.edges[o]
	out := make([]model.Label, 0, len(gs))
	for i := range gs {
		if len(gs[i].kids) > 0 {
			out = append(out, gs[i].label)
		}
	}
	return out
}

// AllChildren returns the union of lch(o, l) over all labels: every object
// that may be a child of o.
func (w *WeakInstance) AllChildren(o model.ObjectID) sets.Set {
	var u sets.Set
	for _, g := range w.edges[o] {
		u = u.Union(g.kids)
	}
	return u
}

// LabelOf returns the unique label under which child is a potential child
// of o. The boolean result is false when child is not a potential child.
// Uniqueness is guaranteed by Validate's label-disjointness check; on an
// instance that fails it the smallest matching label is returned.
func (w *WeakInstance) LabelOf(o, child model.ObjectID) (model.Label, bool) {
	for _, g := range w.edges[o] {
		if g.kids.Contains(child) {
			return g.label, true
		}
	}
	return "", false
}

// SetCard sets card(o, l) = [min, max] (Definition 3.4 item 5).
func (w *WeakInstance) SetCard(o model.ObjectID, l model.Label, min, max int) {
	w.own()
	w.invalidateGraph()
	w.AddObject(o)
	g := edgeGroup{label: l, card: sets.Interval{Min: min, Max: max}, hasCard: true}
	if old := w.group(o, l); old != nil {
		g.kids = old.kids
	}
	w.putGroup(o, g)
}

// Card returns card(o, l). When no interval has been set the default is
// [0, |lch(o, l)|] — the "no cardinality constraint" regime the paper's
// experiments use.
func (w *WeakInstance) Card(o model.ObjectID, l model.Label) sets.Interval {
	if g := w.group(o, l); g != nil {
		return g.interval()
	}
	return sets.Interval{}
}

// IsLeaf reports whether o is a leaf of the weak instance: it has no
// potential children under any label.
func (w *WeakInstance) IsLeaf(o model.ObjectID) bool {
	return !hasKids(w.edges[o])
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
	return sets.BoundedSubsets(w.LCh(o, l), w.Card(o, l))
}

// PotentialChildSets returns PC(o), the potential child sets of Definition
// 3.6: one potential l-child set chosen per label, unioned. The limit
// bounds the result size; exceeding it is an error. A leaf object has the
// single potential child set ∅.
func (w *WeakInstance) PotentialChildSets(o model.ObjectID, limit int) ([]sets.Set, error) {
	if limit <= 0 {
		limit = DefaultPCLimit
	}
	gs := w.edges[o]
	total := 1
	fams := make([]sets.Family, 0, len(gs))
	for i := range gs {
		g := &gs[i]
		if len(g.kids) == 0 {
			continue
		}
		cnt := sets.CountBoundedSubsets(len(g.kids), g.interval(), limit)
		if total*cnt > limit {
			return nil, fmt.Errorf("core: PC(%s) exceeds limit %d", o, limit)
		}
		total *= cnt
		fams = append(fams, sets.Family(sets.BoundedSubsets(g.kids, g.interval())))
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
	gs, total := w.edges[o], 1
	for i := range gs {
		g := &gs[i]
		if len(g.kids) == 0 {
			continue
		}
		cnt := sets.CountBoundedSubsets(len(g.kids), g.interval(), limit)
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
	for o, gs := range w.edges {
		if !satisfiable(gs) {
			continue
		}
		for _, eg := range gs {
			if eg.hasCard && eg.card.Max < 1 {
				continue
			}
			for _, c := range eg.kids {
				// Relabel conflicts surface in Validate; ignore here.
				_ = g.AddEdge(o, c, eg.label)
			}
		}
	}
	return g
}

// satisfiable reports whether every label of gs has a potential l-child
// set: one whose minimum exceeds its potential children has none, which
// annihilates PC(o).
func satisfiable(gs []edgeGroup) bool {
	for _, g := range gs {
		if len(g.kids) > 0 && g.hasCard && g.card.Min > len(g.kids) {
			return false
		}
	}
	return true
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
	// Every lch error is reported ahead of any card error.
	var cardErr error
	for o, gs := range w.edges {
		if _, ok := w.objects[o]; !ok && hasKids(gs) {
			return fmt.Errorf("core: lch parent %s not in V", o)
		}
		// Cross-label duplicates need the seen map; within one label the
		// canonical Set is already duplicate-free, so single-label objects
		// (the common case) skip the bookkeeping entirely.
		multi := len(gs) > 1
		if multi {
			clear(seen)
		}
		for _, g := range gs {
			if g.hasCard && cardErr == nil {
				if err := g.card.Validate(); err != nil {
					cardErr = fmt.Errorf("core: card(%s,%s): %w", o, g.label, err)
				}
			}
			for _, c := range g.kids {
				if _, ok := w.objects[c]; !ok {
					return fmt.Errorf("core: lch(%s,%s) child %s not in V", o, g.label, c)
				}
				if c == w.root {
					return fmt.Errorf("core: root %s appears in lch(%s,%s)", w.root, o, g.label)
				}
				if multi {
					if prev, dup := seen[c]; dup {
						return fmt.Errorf("core: object %s is a potential child of %s under labels %q and %q", c, o, prev, g.label)
					}
					seen[c] = g.label
				}
			}
		}
	}
	if cardErr != nil {
		return cardErr
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

// Clone returns a deep copy of the weak instance. Edge groups, child sets
// and types are shared (never written once stored); maps are copied.
func (w *WeakInstance) Clone() *WeakInstance {
	return &WeakInstance{root: w.root, weakTables: w.weakTables.clone()}
}

// clone copies every map. Nothing below them needs copying: the mutators
// replace an object's group slice instead of writing into it.
func (t weakTables) clone() weakTables {
	return weakTables{
		objects: maps.Clone(t.objects),
		edges:   maps.Clone(t.edges),
		types:   maps.Clone(t.types),
		typ:     maps.Clone(t.typ),
		val:     maps.Clone(t.val),
	}
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
	for o, gs := range w.edges {
		// Labels are not renamed, so the groups stay in label order.
		cgs := slices.Clone(gs)
		for i, g := range cgs {
			ids := make([]string, g.kids.Len())
			for j, id := range g.kids {
				ids[j] = rn(id)
			}
			cgs[i].kids = sets.NewSet(ids...)
		}
		c.edges[rn(o)] = cgs
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
