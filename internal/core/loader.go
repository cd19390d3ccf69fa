package core

import (
	"fmt"
	"slices"
	"strings"

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
	// size is the expected number of objects.
	size int
	// arena is the chunk every object's edge groups are cut from, and
	// chunk the size of the next one; kidIDs and kidNums are the chunks
	// their members are cut from.
	arena   []edgeGroup
	chunk   int
	kidIDs  []model.ObjectID
	kidNums []int32
}

// NewLoader starts a load of an instance with the given root and an
// expected total of nObjects objects.
func NewLoader(root model.ObjectID, nObjects int) *Loader {
	nObjects = max(nObjects, 1)
	// The id table is made on the first lookup (see ids): a loader that
	// only Adds leaves it to be built if some reader asks.
	w := &WeakInstance{root: root, weakTables: weakTables{
		lazy:  &lazyIDs{},
		names: make([]model.ObjectID, 0, nObjects),
		objs:  make([]objEntry, 0, nObjects),
		types: make(map[model.TypeName]model.Type),
	}}
	w.objs[w.add(root)].inV, w.nV = true, 1
	pi := &ProbInstance{WeakInstance: w, interp: &localInterp{
		opf: lpfs[prob.OPF]{base: make([]*prob.OPF, 0, nObjects)},
		vpf: lpfs[prob.VPF]{base: make([]*prob.VPF, 0, nObjects)},
	}}
	// Roughly half the objects of a typical instance are non-leaves, the
	// carriers of edge groups.
	return &Loader{pi: pi, size: nObjects, chunk: nObjects/2 + 1}
}

// ExpectParents sizes the arena edge groups are cut from for about n
// objects with children, for a caller that knows better than half the
// objects NewLoader assumes. Call it before the first SetEdges.
func (ld *Loader) ExpectParents(n int) { ld.chunk = max(n, 1) }

// ids returns the id table, making it, sized for the expected objects, on
// the first lookup.
func (ld *Loader) ids() map[model.ObjectID]int32 {
	if ld.pi.ids == nil {
		ld.pi.ids = make(map[model.ObjectID]int32, ld.size)
		for i, o := range ld.pi.names {
			ld.pi.ids[o] = int32(i)
		}
	}
	return ld.pi.ids
}

// Number returns o's number, giving o the next one on its first mention
// (DESIGN §31). A number does not put o in V; Declare does.
func (ld *Loader) Number(o model.ObjectID) int32 {
	if i, ok := ld.ids()[o]; ok {
		return i
	}
	return ld.pi.add(o)
}

// NumberBytes is Number for an id still in the decoder's buffer, returning
// the id as the instance stores it: only a first mention copies the bytes.
func (ld *Loader) NumberBytes(b []byte) (model.ObjectID, int32) {
	if i, ok := ld.ids()[string(b)]; ok {
		return ld.pi.names[i], i
	}
	o := string(b)
	return o, ld.pi.add(o)
}

// Add gives o the next number without looking it up, for a builder that
// meets every object once, such as a projection of a forest. Until a
// Number call, the loader keeps no id table, and the instance builds one
// on its first lookup by id.
func (ld *Loader) Add(o model.ObjectID) int32 { return ld.pi.add(o) }

// Len returns how many objects have a number.
func (ld *Loader) Len() int { return len(ld.pi.names) }

// Name returns the id of object number o.
func (ld *Loader) Name(o int32) model.ObjectID { return ld.pi.names[o] }

// Declare puts object number o in V.
func (ld *Loader) Declare(o int32) {
	if e := &ld.pi.objs[o]; !e.inV {
		e.inV = true
		ld.pi.nV++
	}
}

// RegisterType records a leaf type; see WeakInstance.RegisterType.
func (ld *Loader) RegisterType(t model.Type) error {
	return ld.pi.RegisterType(t)
}

// ShareTypes gives the instance w's registered types instead of copies of
// them. Both are marked shared, so whichever is mutated next copies its
// tables first, as an overlay and its base do.
func (ld *Loader) ShareTypes(w *WeakInstance) {
	ld.pi.types, ld.pi.typeNames, ld.pi.typeNums = w.types, w.typeNames, w.typeNums
	ld.pi.shared.Store(true)
	if !w.shared.Load() {
		w.shared.Store(true)
	}
}

// SetLeafType assigns τ(o) and puts o in V; the type must already be
// registered.
func (ld *Loader) SetLeafType(o int32, tn model.TypeName) error {
	typ, ok := ld.pi.typeNums[tn]
	if !ok {
		return fmt.Errorf("core: unknown type %q for object %s", tn, ld.pi.names[o])
	}
	ld.Declare(o)
	ld.pi.objs[o].typ = typ
	return nil
}

// SetDefaultValue assigns val(o); see WeakInstance.SetDefaultValue.
func (ld *Loader) SetDefaultValue(o int32, v model.Value) error {
	return ld.pi.setDefault(o, v)
}

// SetEdges assigns lch(o, l) = the objects numbered kids and card(o, l) =
// [lo, hi] in one step, replacing whatever an earlier call recorded for
// (o, l). kids is copied, in id order, so the caller may reuse it;
// children are not implicitly added to V. An empty kids removes lch(o, l),
// as WeakInstance.SetLCh does, and still records the interval.
//
// The instance is nobody else's until Instance returns, so unlike the
// WeakInstance mutators SetEdges writes o's groups in place, cut from one
// arena (see room).
func (ld *Loader) SetEdges(o int32, l model.Label, kids []int32, lo, hi int) {
	g := edgeGroup{label: l}
	if len(kids) > 0 {
		g.kids, g.nums = ld.set(kids)
	}
	// The default interval is what Card reconstructs; it is not stored, and
	// an interval an earlier call stored does not outlive that call's set.
	if lo != 0 || hi != len(g.kids) {
		g.card, g.hasCard = sets.Interval{Min: lo, Max: hi}, true
	}
	e := &ld.pi.objs[o]
	e.groups = withGroup(ld.room(e.groups), g)
}

// set returns the canonical set of the objects numbered kids, and their
// numbers in its order, both cut from the loader's chunks: in kids's order
// when their ids ascend, which is how every encoder writes them, and
// otherwise sorted with repeats dropped.
func (ld *Loader) set(kids []int32) (sets.Set, []int32) {
	names, n := ld.pi.names, len(kids)
	if cap(ld.kidNums)-len(ld.kidNums) < n {
		size := max(n, ld.size)
		ld.kidIDs, ld.kidNums = make([]model.ObjectID, 0, size), make([]int32, 0, size)
	}
	at := len(ld.kidNums)
	ld.kidNums = append(ld.kidNums, kids...)
	nums := ld.kidNums[at : at+n : at+n]
	ascending := true
	for i := 1; i < n && ascending; i++ {
		ascending = names[nums[i-1]] < names[nums[i]]
	}
	if !ascending {
		slices.SortFunc(nums, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
		nums = slices.Compact(nums)
	}
	for _, k := range nums {
		ld.kidIDs = append(ld.kidIDs, names[k])
	}
	ld.kidIDs = ld.kidIDs[:at+n]
	return sets.Set(ld.kidIDs[at : at+len(nums) : at+len(nums)]), nums
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
func (ld *Loader) SetOPF(o int32, w *prob.OPF) { ld.pi.interp.opf.set(o, w) }

// SetVPF assigns ℘(o) for a leaf object.
func (ld *Loader) SetVPF(o int32, v *prob.VPF) { ld.pi.interp.vpf.set(o, v) }

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
