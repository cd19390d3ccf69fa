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
		lch:     make(map[model.ObjectID]map[model.Label]sets.Set, half),
		// Cardinality constraints and default values are sparse in
		// practice (SetEdges elides the default interval), so their maps
		// start small and grow only when an instance actually uses them.
		card:  make(map[model.ObjectID]map[model.Label]sets.Interval),
		types: make(map[model.TypeName]model.Type),
		typ:   make(map[model.ObjectID]model.TypeName, half),
		val:   make(map[model.ObjectID]model.Value),
	}}
	w.objects[root] = struct{}{}
	pi := &ProbInstance{
		WeakInstance: w,
		interp: &localInterp{interpTables: interpTables{
			opf: make(map[model.ObjectID]*prob.OPF, half),
			vpf: make(map[model.ObjectID]*prob.VPF, half),
		}},
	}
	return &Loader{pi: pi}
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

// SetEdges assigns lch(o, l) = children and card(o, l) = [min, max] in one
// step, replacing whatever an earlier call recorded for (o, l). The set is
// adopted as-is (it must be canonical) and children are not implicitly
// added to V. An empty set removes lch(o, l), as WeakInstance.SetLCh does,
// and still records the interval.
func (ld *Loader) SetEdges(o model.ObjectID, l model.Label, children sets.Set, min, max int) {
	w := ld.pi.WeakInstance
	lm := w.lch[o]
	if children.IsEmpty() {
		delete(lm, l)
		if lm != nil && len(lm) == 0 {
			delete(w.lch, o)
		}
	} else {
		if lm == nil {
			lm = make(map[model.Label]sets.Set, 2)
			w.lch[o] = lm
		}
		lm[l] = children
	}
	cm := w.card[o]
	if min == 0 && max == children.Len() {
		// The default interval Card() reconstructs on lookup; storing it
		// would only burn a map entry per edge group. An interval an earlier
		// call stored must not outlive that call's set, though.
		delete(cm, l)
		return
	}
	if cm == nil {
		cm = make(map[model.Label]sets.Interval, 2)
		w.card[o] = cm
	}
	cm[l] = sets.Interval{Min: min, Max: max}
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
