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
	// order is V in sorted order as object numbers, which the passes over
	// an instance (ValidateLite, the encoders, the governor's profile)
	// start from, and rank, by number, each one's position in it, -1
	// outside V (DESIGN §31).
	order []int32
	rank  []int32
	// childSets is the bitset view of an instance's OPFs over graph's rows
	// (ProbInstance.ChildSets, DESIGN §36), for the interpretation it
	// names; SetOPF drops it too.
	childSets *ChildSets
}

// weakTables are the tables behind a WeakInstance, grouped so that an
// overlay can share them and Clone/own can copy them in one step. Every
// object the tables mention has a number, given on first mention, and the
// per-object tables are slices indexed by it; ids is the only table keyed
// by the id string (DESIGN §31).
type weakTables struct {
	// ids is nil until first needed in tables a loader filled through
	// Add, and lazy then builds it from names (see idMap).
	ids   map[model.ObjectID]int32
	lazy  *lazyIDs
	names []model.ObjectID // by number
	objs  []objEntry       // by number
	// vals holds val(o) by number; default values are rare, so it is made
	// on the first.
	vals map[int32]model.Value
	// types holds the registered types by name and typeNames their names
	// in the order they were registered; typeNums maps a name to 1 + its
	// position there, which is what an objEntry's typ holds (0 untyped).
	types     map[model.TypeName]model.Type
	typeNames []model.TypeName
	typeNums  map[model.TypeName]int32
	nV        int // |V|: the objects with inV set
}

// lazyIDs is an id table built on first use, once for all the readers of
// the tables that share it.
type lazyIDs struct {
	once sync.Once
	m    map[model.ObjectID]int32
}

// idMap returns the id table, building it if a loader left it to be built.
func (t *weakTables) idMap() map[model.ObjectID]int32 {
	if t.ids != nil || t.lazy == nil {
		return t.ids
	}
	t.lazy.once.Do(func() {
		t.lazy.m = make(map[model.ObjectID]int32, len(t.names))
		for i, o := range t.names {
			t.lazy.m[o] = int32(i)
		}
	})
	return t.lazy.m
}

// num returns o's number.
func (t *weakTables) num(o model.ObjectID) (int32, bool) {
	i, ok := t.idMap()[o]
	return i, ok
}

// objEntry is what the tables hold for one numbered object. An edge group
// slice stored here is never written again — a mutator stores a fresh one
// — so copying the objs slice copies the tables (DESIGN §25).
type objEntry struct {
	// groups holds lch and card: one group per label, sorted by label.
	groups []edgeGroup
	// typ is τ(o): 1 + its position in typeNames, 0 when untyped.
	typ int32
	// inV says the object is in V; a number may also belong to an object
	// only mentioned, as a loaded lch child or the target of SetOPF.
	inV bool
}

// edgeGroup is lch(o, label) with card(o, label) when one was set. A group
// without kids keeps a card set for a label that has no potential children;
// a group with neither is not stored, nor is the default interval.
type edgeGroup struct {
	label   model.Label
	kids    sets.Set
	nums    []int32 // the numbers of kids, in the same order
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

// groups returns o's edge groups; nil when o has none or no number.
func (t *weakTables) groups(o model.ObjectID) []edgeGroup {
	if i, ok := t.num(o); ok {
		return t.objs[i].groups
	}
	return nil
}

// group returns o's group for l; nil when there is none.
func (t *weakTables) group(o model.ObjectID, l model.Label) *edgeGroup {
	gs := t.groups(o)
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
	if len(gs) == 0 {
		return nil
	}
	return gs
}

// putGroup is withGroup on o's groups for the mutators: the stored slice
// is a new one, and the one it replaces, which an overlay or a clone may
// share, is not written.
func (t *weakTables) putGroup(o int32, g edgeGroup) {
	t.objs[o].groups = withGroup(slices.Clone(t.objs[o].groups), g)
}

// number returns o's number, giving o the next one when it has none. The
// caller owns the tables.
func (t *weakTables) number(o model.ObjectID) int32 {
	if i, ok := t.num(o); ok {
		return i
	}
	t.ids = t.idMap()
	return t.add(o)
}

// add gives o, which has no number, the next one.
func (t *weakTables) add(o model.ObjectID) int32 {
	i := int32(len(t.names))
	if t.ids != nil {
		t.ids[o] = i
	}
	t.names = append(t.names, o)
	t.objs = append(t.objs, objEntry{})
	return i
}

// NewWeakInstance returns a weak instance containing only the root object.
func NewWeakInstance(root model.ObjectID) *WeakInstance {
	w := &WeakInstance{root: root, weakTables: weakTables{
		ids:   make(map[model.ObjectID]int32),
		types: make(map[model.TypeName]model.Type),
	}}
	w.addObject(root)
	return w
}

// Root returns the root object identifier.
func (w *WeakInstance) Root() model.ObjectID { return w.root }

// invalidateGraph drops everything memoized after a mutation of V, lch or
// card: the sorted view, the graph, its shape and Validate's verdict.
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
	// The view belongs to w's interpretation, never the overlay's.
	c.memo.childSets = nil
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
	if !w.HasObject(o) {
		w.own()
		w.addObject(o)
	}
}

// addObject is AddObject for a caller that owns the tables, returning o's
// number. A new member of V appends to the numbering out of sorted order,
// so the memoized sorted view goes with the rest of the memo.
func (w *WeakInstance) addObject(o model.ObjectID) int32 {
	i := w.number(o)
	if !w.objs[i].inV {
		w.objs[i].inV = true
		w.nV++
		w.invalidateGraph()
	}
	return i
}

// HasObject reports whether o ∈ V.
func (w *WeakInstance) HasObject(o model.ObjectID) bool {
	i, ok := w.num(o)
	return ok && w.objs[i].inV
}

// Objects returns V in sorted order. The slice is the caller's to keep.
func (w *WeakInstance) Objects() []model.ObjectID {
	order := w.sortedOrder()
	out := make([]model.ObjectID, len(order))
	for k, i := range order {
		out[k] = w.names[i]
	}
	return out
}

// Ranks returns, by object number, each object's position in V's sorted
// order (-1 for a number outside V), from the memoized view every pass over
// an instance starts from. The slice is shared: treat it as read-only.
func (w *WeakInstance) Ranks() []int32 {
	w.graphMu.Lock()
	defer w.graphMu.Unlock()
	w.sortedLocked()
	return w.memo.rank
}

// sortedOrder returns V in sorted order as object numbers.
func (w *WeakInstance) sortedOrder() []int32 {
	w.graphMu.Lock()
	defer w.graphMu.Unlock()
	w.sortedLocked()
	return w.memo.order
}

// sortedLocked fills the memoized sorted view for a caller holding graphMu:
// a permutation of the numbers, sorted once, in place of sorting the ids.
func (w *WeakInstance) sortedLocked() {
	if w.memo.order != nil {
		return
	}
	order := make([]int32, 0, w.nV)
	for i := range w.objs {
		if w.objs[i].inV {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(w.names[a], w.names[b]) })
	rank := make([]int32, len(w.names))
	for i := range rank {
		rank[i] = -1
	}
	for k, i := range order {
		rank[i] = int32(k)
	}
	w.memo.order, w.memo.rank = order, rank
}

// NumObjects returns |V|.
func (w *WeakInstance) NumObjects() int { return w.nV }

// SetLCh declares lch(o, l) = children: the set of objects that may be
// children of o under label l. All mentioned objects are added to V.
// Passing an empty children list removes the entry.
func (w *WeakInstance) SetLCh(o model.ObjectID, l model.Label, children ...model.ObjectID) {
	w.own()
	w.invalidateGraph()
	i := w.addObject(o)
	g := edgeGroup{label: l, kids: sets.NewSet(children...)}
	g.nums = make([]int32, len(g.kids))
	for k, c := range g.kids {
		g.nums[k] = w.addObject(c)
	}
	if old := w.group(o, l); old != nil {
		g.card, g.hasCard = old.card, old.hasCard
	}
	w.putGroup(i, g)
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
	gs := w.groups(o)
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
	for _, g := range w.groups(o) {
		u = u.Union(g.kids)
	}
	return u
}

// LabelOf returns the unique label under which child is a potential child
// of o. The boolean result is false when child is not a potential child.
// Uniqueness is guaranteed by Validate's label-disjointness check; on an
// instance that fails it the smallest matching label is returned.
func (w *WeakInstance) LabelOf(o, child model.ObjectID) (model.Label, bool) {
	for _, g := range w.groups(o) {
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
	i := w.addObject(o)
	g := edgeGroup{label: l, card: sets.Interval{Min: min, Max: max}, hasCard: true}
	if old := w.group(o, l); old != nil {
		g.kids, g.nums = old.kids, old.nums
	}
	w.putGroup(i, g)
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
	return !hasKids(w.groups(o))
}

// RegisterType records a leaf type so objects can reference it by name.
func (w *WeakInstance) RegisterType(t model.Type) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if old, ok := w.types[t.Name]; ok {
		if !slices.Equal(old.Domain, t.Domain) {
			return fmt.Errorf("core: type %q re-registered with different domain", t.Name)
		}
		return nil
	}
	w.own()
	w.invalidateValid()
	w.types[t.Name] = t
	if w.typeNums == nil {
		w.typeNums = make(map[model.TypeName]int32)
	}
	w.typeNums[t.Name] = int32(len(w.typeNames)) + 1
	w.typeNames = append(w.typeNames, t.Name)
	return nil
}

// typeOf returns the name of τ for an object's entry, "" when untyped.
func (t *weakTables) typeOf(e *objEntry) model.TypeName {
	if e.typ == 0 {
		return ""
	}
	return t.typeNames[e.typ-1]
}

// Types returns the registered types keyed by name. Callers must not mutate
// the returned map.
func (w *WeakInstance) Types() map[model.TypeName]model.Type { return w.types }

// SetLeafType assigns τ(o) = tn, adding o to V. The type must have been
// registered.
func (w *WeakInstance) SetLeafType(o model.ObjectID, tn model.TypeName) error {
	typ, ok := w.typeNums[tn]
	if !ok {
		return fmt.Errorf("core: unknown type %q for object %s", tn, o)
	}
	w.own()
	w.invalidateValid()
	w.objs[w.addObject(o)].typ = typ
	return nil
}

// SetDefaultValue assigns val(o) = v, the representative leaf value of
// Definition 3.4 item 4. The value must lie in the object's type domain.
func (w *WeakInstance) SetDefaultValue(o model.ObjectID, v model.Value) error {
	i, ok := w.num(o)
	if !ok || w.objs[i].typ == 0 {
		return fmt.Errorf("core: object %s has no type; set one before a default value", o)
	}
	return w.setDefault(i, v)
}

// setDefault is SetDefaultValue for an object known by number.
func (w *WeakInstance) setDefault(i int32, v model.Value) error {
	tn := w.typeOf(&w.objs[i])
	if tn == "" {
		return fmt.Errorf("core: object %s has no type; set one before a default value", w.names[i])
	}
	if !w.types[tn].Has(v) {
		return fmt.Errorf("core: value %q outside dom(%s) for object %s", v, tn, w.names[i])
	}
	w.own()
	w.invalidateValid()
	if w.vals == nil {
		w.vals = make(map[int32]model.Value)
	}
	w.vals[i] = v
	return nil
}

// TypeOf returns τ(o); the boolean result is false for untyped objects.
func (w *WeakInstance) TypeOf(o model.ObjectID) (model.Type, bool) {
	if i, ok := w.num(o); ok && w.objs[i].typ != 0 {
		return w.types[w.typeOf(&w.objs[i])], true
	}
	return model.Type{}, false
}

// TypeNameAt returns the name of τ(o) for the object numbered i, "" when
// it is untyped or i numbers no object.
func (w *WeakInstance) TypeNameAt(i int32) model.TypeName {
	if int(i) >= len(w.objs) {
		return ""
	}
	return w.typeOf(&w.objs[i])
}

// DefaultValue returns val(o); the boolean result is false when no default
// value was assigned.
func (w *WeakInstance) DefaultValue(o model.ObjectID) (model.Value, bool) {
	if i, ok := w.num(o); ok {
		v, ok := w.vals[i]
		return v, ok
	}
	return "", false
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
	gs := w.groups(o)
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
	gs, total := w.groups(o), 1
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
		w.sortedLocked()
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

// buildGraph constructs the weak instance graph over the instance's own
// numbering, one row per object (DESIGN §31). A potential child of o under
// label l occurs in some set of PC(o), and so gets its edge, when some
// potential l-child set contains it and no label's family, l's included,
// is empty.
func (w *WeakInstance) buildGraph() *graph.Graph {
	n := 0
	for i := range w.objs {
		for _, g := range w.objs[i].groups {
			n += len(g.nums)
		}
	}
	links := make([]graph.Link, 0, n)
	for i := range w.objs {
		gs := w.objs[i].groups
		if !satisfiable(gs) {
			continue
		}
		for _, eg := range gs {
			if eg.hasCard && eg.card.Max < 1 {
				continue
			}
			for _, c := range eg.nums {
				links = append(links, graph.Link{From: int32(i), To: c, Label: eg.label})
			}
		}
	}
	// Numbers given after the sorted view was taken are no vertices.
	rank := w.memo.rank
	return graph.Build(w.idMap(), w.names[:len(rank)], w.memo.order, rank, links)
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
	return w.shape().Reachable == w.nV
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

// validate reports the first fault of a walk that is the same for the same
// tables: every object in number order, labels in order; every lch error
// ahead of any card error. A loader numbers objects in the order its input
// mentions them, so one document always gets one message, and loading
// sorts nothing (DESIGN §31).
func (w *WeakInstance) validate() error {
	// The root is numbered first.
	if !w.objs[0].inV {
		return fmt.Errorf("core: root %s not in V", w.root)
	}
	var cardErr error
	for i := range w.objs {
		o, e := w.names[i], &w.objs[i]
		if !e.inV && hasKids(e.groups) {
			return fmt.Errorf("core: lch parent %s not in V", o)
		}
		for gi, g := range e.groups {
			if g.hasCard && cardErr == nil {
				if err := g.card.Validate(); err != nil {
					cardErr = fmt.Errorf("core: card(%s,%s): %w", o, g.label, err)
				}
			}
			for k, c := range g.nums {
				if !w.objs[c].inV {
					return fmt.Errorf("core: lch(%s,%s) child %s not in V", o, g.label, g.kids[k])
				}
				if c == 0 {
					return fmt.Errorf("core: root %s appears in lch(%s,%s)", w.root, o, g.label)
				}
				// Within one label the canonical Set is duplicate-free; an
				// object has few labels, so the earlier ones are searched.
				for _, prev := range e.groups[:gi] {
					if prev.kids.Contains(g.kids[k]) {
						return fmt.Errorf("core: object %s is a potential child of %s under labels %q and %q", g.kids[k], o, prev.label, g.label)
					}
				}
			}
		}
	}
	if cardErr != nil {
		return cardErr
	}
	for i := range w.objs {
		e := &w.objs[i]
		if e.typ == 0 {
			continue
		}
		tn := w.typeOf(e)
		v, hasVal := w.vals[int32(i)]
		switch {
		case hasKids(e.groups):
			return fmt.Errorf("core: non-leaf object %s carries leaf type %q", w.names[i], tn)
		case hasVal && !w.types[tn].Has(v):
			return fmt.Errorf("core: default value %q of %s outside dom(%s)", v, w.names[i], tn)
		}
	}
	return nil
}

// Clone returns a deep copy of the weak instance. Edge groups, child sets
// and types are shared (never written once stored); tables are copied.
func (w *WeakInstance) Clone() *WeakInstance {
	return &WeakInstance{root: w.root, weakTables: w.weakTables.clone()}
}

// clone copies every table. Nothing below them needs copying: the mutators
// replace an object's group slice instead of writing into it.
func (t weakTables) clone() weakTables {
	return weakTables{
		ids:       maps.Clone(t.idMap()),
		names:     slices.Clone(t.names),
		objs:      slices.Clone(t.objs),
		vals:      maps.Clone(t.vals),
		types:     maps.Clone(t.types),
		typeNames: slices.Clone(t.typeNames),
		typeNums:  maps.Clone(t.typeNums),
		nV:        t.nV,
	}
}

// Rename returns a copy of the weak instance with object identifiers
// substituted per the mapping (identifiers absent from the map are kept).
// It is used by the Cartesian product to make operand universes disjoint.
func (w *WeakInstance) Rename(m map[model.ObjectID]model.ObjectID) *WeakInstance {
	c, _ := w.rename(m)
	return c
}

// rename is Rename, also returning each object's number in the copy by its
// number in w.
func (w *WeakInstance) rename(m map[model.ObjectID]model.ObjectID) (*WeakInstance, []int32) {
	rn := func(o model.ObjectID) model.ObjectID {
		if n, ok := m[o]; ok {
			return n
		}
		return o
	}
	c := NewWeakInstance(rn(w.root))
	c.types, c.typeNames, c.typeNums = maps.Clone(w.types), slices.Clone(w.typeNames), maps.Clone(w.typeNums)
	to := make([]int32, len(w.names))
	for i, o := range w.names {
		to[i] = c.number(rn(o))
	}
	for i, e := range w.objs {
		ce := &c.objs[to[i]]
		if e.inV && !ce.inV {
			ce.inV = true
			c.nV++
		}
		if e.typ != 0 {
			ce.typ = e.typ
		}
		if v, ok := w.vals[int32(i)]; ok {
			if c.vals == nil {
				c.vals = make(map[int32]model.Value)
			}
			c.vals[to[i]] = v
		}
		if e.groups == nil {
			continue
		}
		// Labels are not renamed, so the groups stay in label order.
		ce.groups = slices.Clone(e.groups)
		for k, g := range ce.groups {
			ids := make([]string, g.kids.Len())
			for j, id := range g.kids {
				ids[j] = rn(id)
			}
			g.kids = sets.NewSet(ids...)
			g.nums = make([]int32, len(g.kids))
			for j, id := range g.kids {
				g.nums[j] = c.ids[id]
			}
			ce.groups[k] = g
		}
	}
	return c, to
}
