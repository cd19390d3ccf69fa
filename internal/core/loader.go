package core

import (
	"fmt"

	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// Loader assembles a ProbInstance from decoded input without the
// per-mutation overhead of the incremental API: internal tables are
// presized for the known object count, graph-cache invalidation is
// skipped (the instance is fresh, so there is nothing to invalidate), and
// potential-child sets are adopted as given rather than re-canonicalized.
//
// Unlike WeakInstance.SetLCh, SetEdges does NOT add mentioned children to
// V — loaders are expected to declare every object explicitly, and
// Instance()'s validation rejects edges to undeclared objects. This makes
// the loader strict where the incremental API is forgiving, which is the
// right trade for a decoder fed potentially corrupt bytes.
type Loader struct {
	pi *ProbInstance
	// arena is the chunk every object's edge groups are cut from, and
	// chunk the size of the next one.
	arena []edgeGroup
	chunk int
}

// NewLoader starts a load of an instance with the given root and an
// expected total of nObjects objects.
func NewLoader(root model.ObjectID, nObjects int) *Loader {
	if nObjects < 1 {
		nObjects = 1
	}
	// Roughly half the objects of a typical instance are non-leaves (the
	// lch/card/opf carriers) and half are leaves (typ/val/vpf carriers);
	// sizing to the halves avoids both rehashing and oversized tables.
	half := nObjects/2 + 1
	w := &WeakInstance{root: root, weakTables: weakTables{
		objects: make(map[model.ObjectID]struct{}, nObjects),
		edges:   make(map[model.ObjectID][]edgeGroup, half),
		types:   make(map[model.TypeName]model.Type),
		typ:     make(map[model.ObjectID]model.TypeName, half),
		// Default values are sparse in practice, so their map starts small
		// and grows only when an instance actually uses one.
		val: make(map[model.ObjectID]model.Value),
	}}
	w.objects[root] = struct{}{}
	pi := &ProbInstance{
		WeakInstance: w,
		interp: &localInterp{interpTables: interpTables{
			opf: make(map[model.ObjectID]*prob.OPF, half),
			vpf: make(map[model.ObjectID]*prob.VPF, half),
		}},
	}
	return &Loader{pi: pi, chunk: half}
}

// AddObject inserts an object into V.
func (ld *Loader) AddObject(o model.ObjectID) {
	ld.pi.objects[o] = struct{}{}
}

// RegisterType records a leaf type; see WeakInstance.RegisterType.
func (ld *Loader) RegisterType(t model.Type) error {
	return ld.pi.RegisterType(t)
}

// SetLeafType assigns τ(o); the type must already be registered.
func (ld *Loader) SetLeafType(o model.ObjectID, tn model.TypeName) error {
	if _, ok := ld.pi.types[tn]; !ok {
		return fmt.Errorf("core: unknown type %q for object %s", tn, o)
	}
	ld.pi.typ[o] = tn
	return nil
}

// SetDefaultValue assigns val(o); see WeakInstance.SetDefaultValue.
func (ld *Loader) SetDefaultValue(o model.ObjectID, v model.Value) error {
	return ld.pi.SetDefaultValue(o, v)
}

// SetEdges assigns lch(o, l) = children and card(o, l) = [lo, hi] in one
// step, replacing whatever an earlier call recorded for (o, l). The set is
// adopted as-is (it must be canonical) and children are not implicitly
// added to V. An empty set removes lch(o, l), as WeakInstance.SetLCh does,
// and still records the interval.
//
// The instance is nobody else's until Instance returns, so unlike the
// WeakInstance mutators SetEdges writes o's groups in place, cut from one
// arena (see room).
func (ld *Loader) SetEdges(o model.ObjectID, l model.Label, children sets.Set, lo, hi int) {
	g := edgeGroup{label: l}
	if !children.IsEmpty() {
		g.kids = children
	}
	// The default interval is what Card reconstructs; it is not stored, and
	// an interval an earlier call stored does not outlive that call's set.
	if lo != 0 || hi != children.Len() {
		g.card, g.hasCard = sets.Interval{Min: lo, Max: hi}, true
	}
	ld.pi.setGroups(o, withGroup(ld.room(ld.pi.edges[o]), g))
}

// room returns gs, o's groups, with room for one more. The groups cut last
// grow in place at the end of the arena — an object's records are usually
// adjacent — and others move to a cut twice their size, so an object given
// k labels costs O(k) however its records are interleaved.
func (ld *Loader) room(gs []edgeGroup) []edgeGroup {
	n, end := len(gs), len(ld.arena)
	switch {
	case n < cap(gs):
		return gs
	case n > 0 && end < cap(ld.arena) && &gs[n-1] == &ld.arena[end-1]:
		ld.arena = ld.arena[:end+1]
		return ld.arena[end-n : end : end+1]
	}
	return append(ld.carve(max(1, 2*n)), gs...)
}

// carve cuts a zero-length slice with room for exactly n groups from the
// arena, starting a chunk twice the size of the last when the current one
// cannot hold them.
func (ld *Loader) carve(n int) []edgeGroup {
	if cap(ld.arena)-len(ld.arena) < n {
		ld.arena = make([]edgeGroup, 0, max(n, ld.chunk))
		ld.chunk *= 2
	}
	at := len(ld.arena)
	ld.arena = ld.arena[:at+n]
	return ld.arena[at : at : at+n]
}

// SetOPF assigns ℘(o) for a non-leaf object.
func (ld *Loader) SetOPF(o model.ObjectID, w *prob.OPF) { ld.pi.interp.opf[o] = w }

// SetVPF assigns ℘(o) for a leaf object.
func (ld *Loader) SetVPF(o model.ObjectID, v *prob.VPF) { ld.pi.interp.vpf[o] = v }

// Instance finishes the load, returning the instance after the structural
// Validate check every codec applies (root membership, edge targets in V,
// label disjointness, well-formed cardinalities and types). The instance
// remembers that it passed, so the ValidateLite that usually follows a
// decode does not walk lch again; the Loader must not be used afterwards.
func (ld *Loader) Instance() (*ProbInstance, error) {
	if err := ld.pi.WeakInstance.Validate(); err != nil {
		return nil, err
	}
	return ld.pi, nil
}
