// Package model implements the deterministic semistructured data (SD)
// model of Section 3.1 of the PXML paper: rooted, edge-labeled directed
// graphs over objects, with types and values attached to leaves
// (Definition 3.3). It is the representation of the "possible worlds" that
// probabilistic instances range over.
package model

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"pxml/internal/graph"
)

// ObjectID identifies an object (a vertex drawn from the object universe O).
type ObjectID = string

// Label is an edge label drawn from the label universe L.
type Label = string

// Value is a leaf value. PXML values are atomic strings; richer domains are
// encoded by their string representation, matching the paper's treatment of
// leaf domains as finite sets of constants.
type Value = string

// TypeName names a leaf type drawn from the type universe T.
type TypeName = string

// Type is a leaf type: a name together with its finite domain of values,
// e.g. dom(title-type) = {VQDB, Lore} in Example 3.1.
type Type struct {
	Name   TypeName
	Domain []Value
}

// NewType returns a Type with a canonical (sorted, deduplicated) domain.
func NewType(name TypeName, domain ...Value) Type {
	d := make([]Value, len(domain))
	copy(d, domain)
	sort.Strings(d)
	w := 0
	for i, v := range d {
		if i == 0 || v != d[w-1] {
			d[w] = v
			w++
		}
	}
	return Type{Name: name, Domain: d[:w]}
}

// Has reports whether v belongs to the type's domain.
func (t Type) Has(v Value) bool {
	i := sort.SearchStrings(t.Domain, v)
	return i < len(t.Domain) && t.Domain[i] == v
}

// Validate reports an error if the type has no name or an empty domain.
func (t Type) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("model: type with empty name")
	}
	if len(t.Domain) == 0 {
		return fmt.Errorf("model: type %q has empty domain", t.Name)
	}
	return nil
}

// Instance is a semistructured instance S = (V, E, ℓ, τ, val) per
// Definition 3.3: a rooted edge-labeled directed graph whose leaves may
// carry a type and a value.
//
// Deviation note: Definition 3.4 requires every leaf to carry a type and a
// value, but the paper's own algebra produces instances whose leaves have
// neither — Figure 4's ancestor projection leaves the author objects as
// untyped, valueless leaves. PXML therefore makes τ and val optional per
// leaf; semantics (compatibility, probabilities) apply the value conditions
// only to typed leaves.
type Instance struct {
	root ObjectID
	// ids numbers the objects in the order they were added, and edges maps
	// a (parent, child) pair of numbers to its label: the adjacency the
	// Add methods grow, which Graph turns into a graph.Graph.
	ids   map[ObjectID]int32
	names []ObjectID
	edges map[[2]int32]Label
	types map[TypeName]Type
	typ   map[ObjectID]TypeName
	val   map[ObjectID]Value
	// g memoizes Graph until the next AddObject or AddEdge.
	g atomic.Pointer[graph.Graph]
}

// NewInstance returns an instance containing only the given root object.
func NewInstance(root ObjectID) *Instance {
	s := &Instance{
		root:  root,
		ids:   make(map[ObjectID]int32),
		edges: make(map[[2]int32]Label),
		types: make(map[TypeName]Type),
		typ:   make(map[ObjectID]TypeName),
		val:   make(map[ObjectID]Value),
	}
	s.AddObject(root)
	return s
}

// Root returns the root object.
func (s *Instance) Root() ObjectID { return s.root }

// Graph returns the instance's graph, built on first use after the last
// AddObject or AddEdge and shared between callers, who must treat it as
// read-only.
func (s *Instance) Graph() *graph.Graph {
	if g := s.g.Load(); g != nil {
		return g
	}
	links := make([]graph.Link, 0, len(s.edges))
	for p, l := range s.edges {
		links = append(links, graph.Link{From: p[0], To: p[1], Label: l})
	}
	g := graph.Build(s.ids, s.names, nil, nil, links)
	s.g.Store(g)
	return g
}

// number returns o's number, adding o when it is new.
func (s *Instance) number(o ObjectID) int32 {
	n, ok := s.ids[o]
	if !ok {
		n = int32(len(s.names))
		s.ids[o] = n
		s.names = append(s.names, o)
		s.g.Store(nil)
	}
	return n
}

// AddObject inserts an object with no edges.
func (s *Instance) AddObject(o ObjectID) { s.number(o) }

// HasObject reports whether o is in the instance.
func (s *Instance) HasObject(o ObjectID) bool {
	_, ok := s.ids[o]
	return ok
}

// AddEdge inserts the labeled edge o → child, adding both objects. It
// returns an error if the pair is already joined under a different label;
// re-adding an identical edge is a no-op. This enforces the model's
// single-label-per-edge rule.
func (s *Instance) AddEdge(o, child ObjectID, l Label) error {
	p := [2]int32{s.number(o), s.number(child)}
	if cur, ok := s.edges[p]; ok {
		if cur == l {
			return nil
		}
		return fmt.Errorf("model: edge (%s,%s) already labeled %q, cannot relabel to %q", o, child, cur, l)
	}
	s.edges[p] = l
	s.g.Store(nil)
	return nil
}

// RegisterType records a leaf type so objects can reference it by name.
// Re-registering the same name with a different domain is an error.
func (s *Instance) RegisterType(t Type) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if old, ok := s.types[t.Name]; ok {
		if !equalDomains(old.Domain, t.Domain) {
			return fmt.Errorf("model: type %q re-registered with different domain", t.Name)
		}
		return nil
	}
	s.types[t.Name] = t
	return nil
}

// SetLeaf assigns a type and value to an object. The type must be
// registered and the value must lie in its domain.
func (s *Instance) SetLeaf(o ObjectID, tn TypeName, v Value) error {
	t, ok := s.types[tn]
	if !ok {
		return fmt.Errorf("model: unknown type %q for object %s", tn, o)
	}
	if !t.Has(v) {
		return fmt.Errorf("model: value %q not in dom(%s) for object %s", v, tn, o)
	}
	s.AddObject(o)
	s.typ[o] = tn
	s.val[o] = v
	return nil
}

// TypeOf returns the type of o. The boolean result is false when o has no
// assigned type.
func (s *Instance) TypeOf(o ObjectID) (Type, bool) {
	tn, ok := s.typ[o]
	if !ok {
		return Type{}, false
	}
	return s.types[tn], true
}

// ValueOf returns val(o). The boolean result is false when o has no value.
func (s *Instance) ValueOf(o ObjectID) (Value, bool) {
	v, ok := s.val[o]
	return v, ok
}

// Objects returns all objects in sorted order.
func (s *Instance) Objects() []ObjectID { return s.Graph().Nodes() }

// NumObjects returns |V|.
func (s *Instance) NumObjects() int { return len(s.names) }

// Edges returns all edges sorted by (from, to).
func (s *Instance) Edges() []graph.Edge { return s.Graph().Edges() }

// Children returns C(o) in sorted order. The slice is shared: treat it as
// read-only.
func (s *Instance) Children(o ObjectID) []ObjectID { return s.Graph().Children(o) }

// LCh returns lch(o, l).
func (s *Instance) LCh(o ObjectID, l Label) []ObjectID { return s.Graph().LCh(o, l) }

// IsLeaf reports whether o has no children in this instance.
func (s *Instance) IsLeaf(o ObjectID) bool { return s.Graph().IsLeaf(o) }

// Types returns the registered types keyed by name. Callers must not
// mutate the returned map.
func (s *Instance) Types() map[TypeName]Type { return s.types }

// Validate checks the structural invariants of Definition 3.3:
// the root exists and has no parents, every object is reachable from the
// root, values conform to their declared type domains, and only leaves
// carry values.
func (s *Instance) Validate() error {
	g := s.Graph()
	if !g.HasNode(s.root) {
		return fmt.Errorf("model: root %s missing", s.root)
	}
	if ps := g.Parents(s.root); len(ps) > 0 {
		return fmt.Errorf("model: root %s has parents %v", s.root, ps)
	}
	reach := make(map[ObjectID]bool)
	for _, o := range g.ReachableFrom(s.root) {
		reach[o] = true
	}
	for _, o := range g.Nodes() {
		if !reach[o] {
			return fmt.Errorf("model: object %s unreachable from root", o)
		}
	}
	for o, tn := range s.typ {
		t, ok := s.types[tn]
		if !ok {
			return fmt.Errorf("model: object %s has unregistered type %q", o, tn)
		}
		v, ok := s.val[o]
		if !ok {
			return fmt.Errorf("model: typed object %s has no value", o)
		}
		if !t.Has(v) {
			return fmt.Errorf("model: object %s has value %q outside dom(%s)", o, v, tn)
		}
		if !g.IsLeaf(o) {
			return fmt.Errorf("model: non-leaf object %s carries a leaf type", o)
		}
	}
	for o := range s.val {
		if _, ok := s.typ[o]; !ok {
			return fmt.Errorf("model: object %s has a value but no type", o)
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (s *Instance) Clone() *Instance {
	return &Instance{
		root:  s.root,
		ids:   maps.Clone(s.ids),
		names: slices.Clone(s.names),
		edges: maps.Clone(s.edges),
		types: maps.Clone(s.types),
		typ:   maps.Clone(s.typ),
		val:   maps.Clone(s.val),
	}
}

// CanonicalKey returns a string that uniquely identifies the instance up to
// semantic equality: same root, objects, labeled edges, and leaf
// type/value assignments. The algebra uses it to merge identical instances
// when combining probabilities (e.g. Definition 5.3).
func (s *Instance) CanonicalKey() string {
	var b strings.Builder
	b.WriteString("root=")
	b.WriteString(s.root)
	b.WriteString(";V=")
	g := s.Graph()
	for _, o := range g.Nodes() {
		b.WriteString(o)
		b.WriteByte(',')
	}
	b.WriteString(";E=")
	for _, e := range g.Edges() {
		b.WriteString(e.From)
		b.WriteByte('>')
		b.WriteString(e.To)
		b.WriteByte(':')
		b.WriteString(e.Label)
		b.WriteByte(',')
	}
	b.WriteString(";L=")
	leaves := make([]ObjectID, 0, len(s.typ))
	for o := range s.typ {
		leaves = append(leaves, o)
	}
	sort.Strings(leaves)
	for _, o := range leaves {
		b.WriteString(o)
		b.WriteByte(':')
		b.WriteString(s.typ[o])
		b.WriteByte('=')
		b.WriteString(s.val[o])
		b.WriteByte(',')
	}
	return b.String()
}

// Equal reports whether two instances are semantically identical.
func (s *Instance) Equal(t *Instance) bool {
	return s.CanonicalKey() == t.CanonicalKey()
}

// String renders the instance in a compact human-readable form, mainly for
// tests and debugging.
func (s *Instance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instance root=%s objects=%d\n", s.root, s.NumObjects())
	for _, e := range s.Edges() {
		fmt.Fprintf(&b, "  %s -%s-> %s\n", e.From, e.Label, e.To)
	}
	leaves := make([]ObjectID, 0, len(s.val))
	for o := range s.val {
		leaves = append(leaves, o)
	}
	sort.Strings(leaves)
	for _, o := range leaves {
		fmt.Fprintf(&b, "  %s : %s = %s\n", o, s.typ[o], s.val[o])
	}
	return b.String()
}

func equalDomains(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
