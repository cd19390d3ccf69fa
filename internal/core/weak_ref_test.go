package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"pxml/internal/graph"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// refWeak is V, lch and card as WeakInstance kept them before PR 25: a map
// of maps per table, with the accessors that read them. It is the reference
// FuzzWeakTablesDifferential holds the flat edge groups to.
type refWeak struct {
	root    model.ObjectID
	objects map[model.ObjectID]struct{}
	lch     map[model.ObjectID]map[model.Label]sets.Set
	card    map[model.ObjectID]map[model.Label]sets.Interval
	// typ is τ, and opf and vpf say which objects carry a local
	// probability function.
	typ      map[model.ObjectID]model.TypeName
	opf, vpf map[model.ObjectID]bool
}

func newRefWeak(root model.ObjectID) *refWeak {
	return &refWeak{
		root:    root,
		objects: map[model.ObjectID]struct{}{root: {}},
		lch:     make(map[model.ObjectID]map[model.Label]sets.Set),
		card:    make(map[model.ObjectID]map[model.Label]sets.Interval),
		typ:     make(map[model.ObjectID]model.TypeName),
		opf:     make(map[model.ObjectID]bool),
		vpf:     make(map[model.ObjectID]bool),
	}
}

func (w *refWeak) addObject(o model.ObjectID) { w.objects[o] = struct{}{} }

func (w *refWeak) setLCh(o model.ObjectID, l model.Label, children ...model.ObjectID) {
	w.addObject(o)
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
		w.addObject(c)
	}
	if w.lch[o] == nil {
		w.lch[o] = make(map[model.Label]sets.Set)
	}
	w.lch[o][l] = sets.NewSet(children...)
}

func (w *refWeak) setCard(o model.ObjectID, l model.Label, min, max int) {
	w.addObject(o)
	if w.card[o] == nil {
		w.card[o] = make(map[model.Label]sets.Interval)
	}
	w.card[o][l] = sets.Interval{Min: min, Max: max}
}

// setEdges is Loader.SetEdges.
func (w *refWeak) setEdges(o model.ObjectID, l model.Label, children sets.Set, min, max int) {
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
		delete(cm, l)
		return
	}
	if cm == nil {
		cm = make(map[model.Label]sets.Interval, 2)
		w.card[o] = cm
	}
	cm[l] = sets.Interval{Min: min, Max: max}
}

func (w *refWeak) clone() *refWeak {
	c := &refWeak{
		root:    w.root,
		objects: maps.Clone(w.objects),
		lch:     make(map[model.ObjectID]map[model.Label]sets.Set, len(w.lch)),
		card:    make(map[model.ObjectID]map[model.Label]sets.Interval, len(w.card)),
	}
	for o, m := range w.lch {
		c.lch[o] = maps.Clone(m)
	}
	for o, m := range w.card {
		c.card[o] = maps.Clone(m)
	}
	c.typ, c.opf, c.vpf = maps.Clone(w.typ), maps.Clone(w.opf), maps.Clone(w.vpf)
	return c
}

func (w *refWeak) rename(m map[model.ObjectID]model.ObjectID) *refWeak {
	rn := func(o model.ObjectID) model.ObjectID {
		if n, ok := m[o]; ok {
			return n
		}
		return o
	}
	c := newRefWeak(rn(w.root))
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
		c.card[rn(o)] = maps.Clone(lm)
	}
	for o, tn := range w.typ {
		c.typ[rn(o)] = tn
	}
	for o := range w.opf {
		c.opf[rn(o)] = true
	}
	for o := range w.vpf {
		c.vpf[rn(o)] = true
	}
	return c
}

func (w *refWeak) labels(o model.ObjectID) []model.Label {
	out := make([]model.Label, 0, len(w.lch[o]))
	for l := range w.lch[o] {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func (w *refWeak) allChildren(o model.ObjectID) sets.Set {
	var u sets.Set
	for _, l := range w.labels(o) {
		u = u.Union(w.lch[o][l])
	}
	return u
}

func (w *refWeak) labelOf(o, child model.ObjectID) (model.Label, bool) {
	var best model.Label
	found := false
	for l, cs := range w.lch[o] {
		if (!found || l < best) && cs.Contains(child) {
			best, found = l, true
		}
	}
	return best, found
}

func (w *refWeak) cardOf(o model.ObjectID, l model.Label) sets.Interval {
	if iv, ok := w.card[o][l]; ok {
		return iv
	}
	return sets.Interval{Min: 0, Max: w.lch[o][l].Len()}
}

func (w *refWeak) isLeaf(o model.ObjectID) bool {
	for _, s := range w.lch[o] {
		if s.Len() > 0 {
			return false
		}
	}
	return true
}

func (w *refWeak) potentialChildSets(o model.ObjectID, limit int) ([]sets.Set, error) {
	labels := w.labels(o)
	total := 1
	fams := make([]sets.Family, 0, len(labels))
	for _, l := range labels {
		cnt := sets.CountBoundedSubsets(w.lch[o][l].Len(), w.cardOf(o, l), limit)
		if total*cnt > limit {
			return nil, fmt.Errorf("core: PC(%s) exceeds limit %d", o, limit)
		}
		total *= cnt
		fams = append(fams, sets.Family(sets.BoundedSubsets(w.lch[o][l], w.cardOf(o, l))))
	}
	return sets.UnionProduct(fams), nil
}

func (w *refWeak) pcSize(o model.ObjectID, limit int) int {
	total := 1
	for _, l := range w.labels(o) {
		cnt := sets.CountBoundedSubsets(w.lch[o][l].Len(), w.cardOf(o, l), limit)
		if cnt > limit || total > limit/max(cnt, 1) {
			return limit + 1
		}
		total *= cnt
	}
	return total
}

// edges lists G_W's edges as buildGraph added them, in sorted order. Where
// a child sits under two labels of one parent (which validate refuses)
// which label won depended on map order, so label reports it as "?".
func (w *refWeak) edges() []graph.Edge {
	var out []graph.Edge
	for o, m := range w.lch {
		cm := w.card[o]
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
				out = append(out, graph.Edge{From: o, To: c, Label: l})
			}
		}
	}
	return sortedEdges(out)
}

// sortedEdges sorts es by (From, To) and merges the edges of one pair,
// whose label becomes "?" when they disagree.
func sortedEdges(es []graph.Edge) []graph.Edge {
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.From != b.From {
			return compareStrings(a.From, b.From)
		}
		return compareStrings(a.To, b.To)
	})
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].From == e.From && out[n-1].To == e.To {
			if out[n-1].Label != e.Label {
				out[n-1].Label = "?"
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// validate is the structural part of Validate the tables decide.
func (w *refWeak) validate() error {
	if _, ok := w.objects[w.root]; !ok {
		return fmt.Errorf("core: root %s not in V", w.root)
	}
	for o, m := range w.lch {
		if _, ok := w.objects[o]; !ok {
			return fmt.Errorf("core: lch parent %s not in V", o)
		}
		seen := make(map[model.ObjectID]model.Label)
		for l, cs := range m {
			for _, c := range cs {
				if _, ok := w.objects[c]; !ok {
					return fmt.Errorf("core: lch(%s,%s) child %s not in V", o, l, c)
				}
				if c == w.root {
					return fmt.Errorf("core: root %s appears in lch(%s,%s)", w.root, o, l)
				}
				if prev, dup := seen[c]; dup {
					return fmt.Errorf("core: object %s is a potential child of %s under labels %q and %q", c, o, prev, l)
				}
				seen[c] = l
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
		if !w.isLeaf(o) {
			return fmt.Errorf("core: non-leaf object %s carries leaf type %q", o, tn)
		}
	}
	return nil
}

// The universe the differential draws from: names (renaming permutes
// them, so every id stays among them) and labels.
var (
	refNames  = []model.ObjectID{"r", "a", "b", "c", "d", "e", "f"}
	refLabels = []model.Label{"k", "l", "m"}
	refType   = model.NewType("t", "x", "y")
)

// compareWeak fails t unless pi and ref agree on every accessor.
func compareWeak(t *testing.T, step string, pi *ProbInstance, ref *refWeak) {
	t.Helper()
	w := pi.WeakInstance
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{step}, args...)...)
	}
	if w.Root() != ref.root || w.NumObjects() != len(ref.objects) {
		fail("root %s, %d objects; reference %s, %d", w.Root(), w.NumObjects(), ref.root, len(ref.objects))
	}
	want := make([]model.ObjectID, 0, len(ref.objects))
	for o := range ref.objects {
		want = append(want, o)
	}
	if sort.Strings(want); !slices.Equal(w.Objects(), want) {
		fail("objects %v, reference %v", w.Objects(), want)
	}
	refErr := ref.validate()
	if err := w.Validate(); (err == nil) != (refErr == nil) {
		fail("Validate %v, reference %v", err, refErr)
	}
	for _, o := range refNames {
		if got, want := w.Labels(o), ref.labels(o); !slices.Equal(got, want) {
			fail("Labels(%s) = %v, reference %v", o, got, want)
		}
		for _, l := range refLabels {
			if got, want := w.LCh(o, l), ref.lch[o][l]; !got.Equal(want) {
				fail("LCh(%s,%s) = %v, reference %v", o, l, got, want)
			}
			if got, want := w.Card(o, l), ref.cardOf(o, l); got != want {
				fail("Card(%s,%s) = %v, reference %v", o, l, got, want)
			}
		}
		if got, want := w.IsLeaf(o), ref.isLeaf(o); got != want {
			fail("IsLeaf(%s) = %v, reference %v", o, got, want)
		}
		if typ, typed := w.TypeOf(o); typ.Name != ref.typ[o] || typed != (ref.typ[o] != "") {
			fail("TypeOf(%s) = %q %v, reference %q", o, typ.Name, typed, ref.typ[o])
		}
		if got, want := pi.OPF(o) != nil, ref.opf[o]; got != want {
			fail("OPF(%s) set %v, reference %v", o, got, want)
		}
		if got, want := pi.VPF(o) != nil, ref.vpf[o]; got != want {
			fail("VPF(%s) set %v, reference %v", o, got, want)
		}
		if got, want := w.AllChildren(o), ref.allChildren(o); !got.Equal(want) {
			fail("AllChildren(%s) = %v, reference %v", o, got, want)
		}
		for _, c := range refNames {
			gl, gok := w.LabelOf(o, c)
			wl, wok := ref.labelOf(o, c)
			if gl != wl || gok != wok {
				fail("LabelOf(%s,%s) = %q %v, reference %q %v", o, c, gl, gok, wl, wok)
			}
		}
		if refErr != nil {
			continue // PC(o) of a malformed interval is not defined
		}
		const limit = 64
		if got, want := w.PCSize(o, limit), ref.pcSize(o, limit); got != want {
			fail("PCSize(%s) = %d, reference %d", o, got, want)
		}
		got, gerr := w.PotentialChildSets(o, limit)
		want, werr := ref.potentialChildSets(o, limit)
		if (gerr == nil) != (werr == nil) || !slices.EqualFunc(got, want, sets.Set.Equal) {
			fail("PotentialChildSets(%s) = %v %v, reference %v %v", o, got, gerr, want, werr)
		}
	}
	got, wantEdges := sortedEdges(w.Graph().Edges()), ref.edges()
	if refErr != nil {
		// A child under two labels is refused; the label its edge got was
		// the map's choice before.
		for i := range got {
			got[i].Label = ""
		}
		for i := range wantEdges {
			wantEdges[i].Label = ""
		}
	}
	if !slices.Equal(got, wantEdges) {
		fail("graph edges %v, reference %v", got, wantEdges)
	}
	// The graph over the instance's numbering answers like one the model
	// numbers for itself from the reference's edges.
	s := model.NewInstance(ref.root)
	for o := range ref.objects {
		s.AddObject(o)
	}
	for _, e := range wantEdges {
		_ = s.AddEdge(e.From, e.To, e.Label)
	}
	g, sg := w.Graph(), s.Graph()
	for _, o := range refNames {
		if !slices.Equal(g.Children(o), sg.Children(o)) || !slices.Equal(g.Parents(o), sg.Parents(o)) {
			fail("Children(%s) %v, Parents %v; reference %v, %v", o, g.Children(o), g.Parents(o), sg.Children(o), sg.Parents(o))
		}
	}
	if got, want := g.Shape(ref.root), sg.Shape(ref.root); got != want {
		fail("Shape %+v, reference %+v", got, want)
	}
	if got, want := w.IsTree(), g.Shape(ref.root).Tree; got != want {
		fail("IsTree %v, graph says %v", got, want)
	}
}

// FuzzWeakTablesDifferential holds the numbered tables behind
// ProbInstance (DESIGN §31) to the map-of-maps tables they replaced
// (refWeak): a bulk load through Loader.SetEdges (replacing and removing
// groups, leaving card-only ones, naming objects before or without
// declaring them), then SetLCh (empty included), SetCard with or without an
// lch entry, AddObject (out of sorted order, on overlays too), and for an
// op byte of 0xc0 or more SetLeafType, SetOPF and SetVPF (on objects
// outside V too) on one of several handles made by Overlay, Clone and
// Rename, every handle compared with its reference after every step — so a
// mutation through one handle that another could see fails too.
func FuzzWeakTablesDifferential(f *testing.F) {
	f.Add([]byte{3, 1, 0x21, 0x07, 0x10, 1, 0x21, 0x00, 0x00, 0, 0x40, 0x05, 0x33, 3, 0, 0x11, 0x03})
	f.Add([]byte{0, 0, 0x10, 0x06, 1, 0x22, 0x21, 3, 4, 0, 0x31, 0x00, 5, 0x13, 6, 0x00, 1, 0x10, 0x30})
	f.Add([]byte{5, 1, 0x00, 0x3e, 0x05, 1, 0x01, 0x3e, 0x00, 1, 0x00, 0x00, 0x00, 1, 0x12, 0x00, 0x26, 2, 0x40})
	f.Add([]byte{2, 1, 0x10, 0x01, 0x0f, 0, 0x10, 0x00, 0, 0x11, 0x01, 3, 1, 0x10, 0x33, 4, 0, 0x12, 0x02, 6, 0x00})
	f.Add([]byte{4, 2, 0x00, 0x3e, 0x05, 0, 0x15, 1, 0x06, 0x06, 0x0b, 3, 0x04, 0xc0, 0x06, 0xc1, 0x00, 0xc2, 0x05, 0xc1, 0x33, 4, 0x00, 1, 0xc0, 0x01, 3, 0x02, 0xc2, 0x16, 6, 0x01, 0x00, 0xc1, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		name := func(b byte) model.ObjectID { return refNames[int(b)%len(refNames)] }
		label := func(b byte) model.Label { return refLabels[int(b)%len(refLabels)] }
		members := func(mask byte) []model.ObjectID {
			var out []model.ObjectID
			for i, o := range refNames {
				if mask>>i&1 != 0 {
					out = append(out, o)
				}
			}
			return out
		}
		bounds := func(b byte) (int, int) { return int(b&3) - 1, int(b>>2&3) - 1 }

		// A bulk load: Declare and SetEdges, the decoders' two calls. The
		// kids are numbered in refNames order, which is not sorted order.
		ld := NewLoader("r", int(next()%8))
		if err := ld.RegisterType(refType); err != nil {
			t.Fatal(err)
		}
		ref := newRefWeak("r")
		for n := next() % 16; n > 0 && len(data) > 0; n-- {
			op, at := next(), next()
			o, l := name(at), label(at>>4)
			if op%3 == 0 {
				ld.Declare(ld.Number(o))
				ref.addObject(o)
				continue
			}
			kids := members(next())
			lo, hi := bounds(next())
			if op%3 == 2 {
				lo, hi = 0, len(kids) // the default interval, which is not stored
			}
			nums := make([]int32, len(kids))
			for i, c := range kids {
				nums[i] = ld.Number(c)
			}
			ld.SetEdges(ld.Number(o), l, nums, lo, hi)
			ref.setEdges(o, l, sets.NewSet(kids...), lo, hi)
		}
		handles, refs := []*ProbInstance{ld.pi}, []*refWeak{ref}
		compareWeak(t, "loaded", handles[0], refs[0])

		cur := 0
		for step := 0; len(data) > 0 && step < 48; step++ {
			op, at := next(), next()
			w, r := handles[cur], refs[cur]
			o, l := name(at), label(at>>4)
			var did string
			switch {
			case op >= 0xc0 && op%4 == 0:
				// SetLeafType puts o in V; on a non-leaf Validate refuses it.
				if err := w.SetLeafType(o, refType.Name); err != nil {
					t.Fatal(err)
				}
				r.addObject(o)
				r.typ[o] = refType.Name
				did = "SetLeafType(" + o + ")"
			case op >= 0xc0 && op%2 == 1:
				w.SetOPF(o, prob.NewOPF())
				r.opf[o] = true
				did = "SetOPF(" + o + ")"
			case op >= 0xc0:
				w.SetVPF(o, prob.PointMass("x"))
				r.vpf[o] = true
				did = "SetVPF(" + o + ")"
			default:
				switch op % 8 {
				case 0, 1:
					kids := members(next())
					w.SetLCh(o, l, kids...)
					r.setLCh(o, l, kids...)
					did = fmt.Sprintf("SetLCh(%s,%s,%v)", o, l, kids)
				case 2:
					lo, hi := bounds(next())
					w.SetCard(o, l, lo, hi)
					r.setCard(o, l, lo, hi)
					did = fmt.Sprintf("SetCard(%s,%s,%d,%d)", o, l, lo, hi)
				case 3:
					w.AddObject(o)
					r.addObject(o)
					did = "AddObject(" + o + ")"
				case 4, 5, 6:
					if len(handles) == 6 {
						cur = int(at) % len(handles)
						did = fmt.Sprintf("switch to %d", cur)
						break
					}
					var c *ProbInstance
					var cr *refWeak
					switch op % 8 {
					case 4:
						c, cr, did = w.Overlay(), r.clone(), "Overlay"
					case 5:
						c, cr, did = w.Clone(), r.clone(), "Clone"
					default:
						// A rotation of the names by at.
						m := make(map[model.ObjectID]model.ObjectID, len(refNames))
						for i, o := range refNames {
							m[o] = refNames[(i+int(at))%len(refNames)]
						}
						c, cr, did = w.Rename(m), r.rename(m), fmt.Sprintf("Rename(+%d)", at)
					}
					handles, refs = append(handles, c), append(refs, cr)
					cur = int(next()) % len(handles)
				default:
					cur = int(at) % len(handles)
					did = fmt.Sprintf("switch to %d", cur)
				}
			}
			for i := range handles {
				compareWeak(t, fmt.Sprintf("step %d %s, handle %d", step, did, i), handles[i], refs[i])
			}
		}
	})
}
