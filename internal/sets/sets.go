// Package sets implements the set machinery underlying the PXML model:
// canonical object sets, bounded subset enumeration (the potential l-child
// sets of Definition 3.5), minimal hitting sets (footnote 1 of the paper,
// used by Definition 3.6 to assemble potential child sets), and integer
// cardinality intervals (the card function of Definition 3.4).
package sets

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a canonical set of object identifiers: sorted ascending with no
// duplicates. The zero value is the empty set.
type Set []string

// NewSet returns the canonical set holding the given ids.
func NewSet(ids ...string) Set {
	if len(ids) == 0 {
		return nil
	}
	s := make(Set, len(ids))
	copy(s, ids)
	sort.Strings(s)
	// Deduplicate in place.
	w := 0
	for i, id := range s {
		if i == 0 || id != s[w-1] {
			s[w] = id
			w++
		}
	}
	return s[:w]
}

// FromSorted returns the canonical set over ids when they are already
// strictly ascending, adopting the slice without copying; otherwise it
// falls back to NewSet. Bulk loaders that decode members in canonical
// order use it to skip the sort and the defensive copy — the caller must
// not reuse the slice afterwards.
func FromSorted(ids []string) Set {
	if len(ids) == 0 {
		return nil
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return NewSet(ids...)
		}
	}
	return Set(ids)
}

// Key returns a canonical string key for the set, usable as a map key.
func (s Set) Key() string {
	return strings.Join(s, "\x1f")
}

// String renders the set as {a, b, c} for human-readable output.
func (s Set) String() string {
	return "{" + strings.Join(s, ", ") + "}"
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether id is a member.
func (s Set) Contains(id string) bool {
	i := sort.SearchStrings(s, id)
	return i < len(s) && s[i] == id
}

// Equal reports whether the two sets have identical members.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is a member of t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// Union returns s ∪ t as a new canonical set.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t as a new canonical set.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// IntersectLen returns |s ∩ t| without building the intersection: a merge
// of the two sorted sets, or a search per member when one is much the
// shorter.
func (s Set) IntersectLen(t Set) int {
	if len(s) > len(t) {
		s, t = t, s
	}
	n := 0
	if len(s)*8 < len(t) {
		for _, id := range s {
			if t.Contains(id) {
				n++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch c := strings.Compare(s[i], t[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Minus returns s \ t as a new canonical set.
func (s Set) Minus(t Set) Set {
	var out Set
	j := 0
	for _, id := range s {
		for j < len(t) && t[j] < id {
			j++
		}
		if j < len(t) && t[j] == id {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Interval is an integer-valued closed interval [Min, Max], the codomain of
// the card function (Definition 3.4, item 5).
type Interval struct {
	Min, Max int
}

// Validate reports an error unless 0 ≤ Min ≤ Max, the constraint the paper
// imposes on card.
func (iv Interval) Validate() error {
	if iv.Min < 0 {
		return fmt.Errorf("sets: interval min %d < 0", iv.Min)
	}
	if iv.Max < iv.Min {
		return fmt.Errorf("sets: interval max %d < min %d", iv.Max, iv.Min)
	}
	return nil
}

// Contains reports whether k lies within [Min, Max].
func (iv Interval) Contains(k int) bool { return iv.Min <= k && k <= iv.Max }

// String renders the interval in the paper's [min, max] notation.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Min, iv.Max) }

// BoundedSubsets returns every subset of universe whose cardinality lies in
// the interval card, in a deterministic order (by size, then lexicographic).
// This is exactly the set PL(o, l) of potential l-child sets (Definition
// 3.5) when universe = lch(o, l). The universe must be canonical. The number
// of subsets can be exponential in len(universe); callers guard with
// CountBoundedSubsets when the universe may be large.
func BoundedSubsets(universe Set, card Interval) []Set {
	n := len(universe)
	lo, hi := card.Min, card.Max
	if hi > n {
		hi = n
	}
	if lo > hi {
		return nil
	}
	var out []Set
	cur := make([]string, 0, hi)
	var rec func(start, size int)
	rec = func(start, size int) {
		if len(cur) == size {
			out = append(out, NewSet(cur...))
			return
		}
		// Prune: not enough elements remain.
		need := size - len(cur)
		for i := start; i <= n-need; i++ {
			cur = append(cur, universe[i])
			rec(i+1, size)
			cur = cur[:len(cur)-1]
		}
	}
	for size := lo; size <= hi; size++ {
		rec(0, size)
	}
	return out
}

// CountBoundedSubsets returns the number of subsets BoundedSubsets would
// produce, capped at limit (it returns limit+1 as soon as the count would
// exceed limit), without materializing them.
func CountBoundedSubsets(n int, card Interval, limit int) int {
	lo, hi := card.Min, card.Max
	if hi > n {
		hi = n
	}
	total := 0
	for size := lo; size <= hi; size++ {
		c := 1
		for i := 0; i < size; i++ {
			c = c * (n - i) / (i + 1)
			if c > limit {
				return limit + 1
			}
		}
		total += c
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// Family is an ordered collection of candidate sets, e.g. the potential
// l-child sets for one label.
type Family []Set

// UnionProduct returns { f1 ∪ f2 ∪ … ∪ fk : fi ∈ families[i] }, with
// duplicate results removed, in deterministic order. This "one potential
// set per label" construction is how PXML computes PC(o). When the families
// are pairwise disjoint as collections of sets — which holds whenever at
// most one label has card.min = 0, since per-label universes are disjoint
// and only ∅ can be shared — it coincides exactly with the unions of the
// minimal hitting sets of Definition 3.6 (see MinimalHittingSets), computed
// without the exponential hitting-set search. When several families share
// ∅ the literal hitting-set reading would drop mixed choices such as {A}
// from PC(o) for lch = {A | author}, {T | title} with both minima zero
// (minimality lets {∅} hit every family at once); the paper's own
// experimental setup ("no cardinality constraint", 2^b entries per OPF)
// shows the cross product is the intended semantics, so PXML uses it
// throughout. An empty input yields a single empty set.
func UnionProduct(families []Family) []Set {
	results := []Set{nil}
	for _, fam := range families {
		next := make([]Set, 0, len(results)*len(fam))
		seen := make(map[string]bool, len(results)*len(fam))
		for _, acc := range results {
			for _, f := range fam {
				u := acc.Union(f)
				k := u.Key()
				if !seen[k] {
					seen[k] = true
					next = append(next, u)
				}
			}
		}
		results = next
	}
	sort.Slice(results, func(i, j int) bool { return lessSet(results[i], results[j]) })
	return results
}

// lessSet orders sets by size, then lexicographically, giving a stable
// total order for enumeration output.
func lessSet(a, b Set) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// SortSets sorts a slice of sets in the canonical order used by this
// package (by size, then lexicographically).
func SortSets(ss []Set) {
	sort.Slice(ss, func(i, j int) bool { return lessSet(ss[i], ss[j]) })
}

// MinimalHittingSets returns all minimal hitting sets of the given families
// per footnote 1 of the paper: H hits S = {S₁,…,Sₙ} iff H ∩ Sᵢ ≠ ∅ for all
// i, and no proper subset of H also hits S. Each element of a family here
// is itself a Set, and hitting sets are sets OF those sets, so the result
// is a slice of Families. Families must be non-empty for a hitting set to
// exist; if any family is empty the result is nil (nothing can hit it).
//
// This is the literal Definition 3.6 construction; production code paths
// use UnionProduct, and tests assert the two agree for disjoint universes.
func MinimalHittingSets(families []Family) []Family {
	for _, f := range families {
		if len(f) == 0 {
			return nil
		}
	}
	if len(families) == 0 {
		return []Family{nil}
	}
	// Enumerate one choice per family; a chosen multiset, deduplicated,
	// is a candidate hitting set. Then filter to minimal ones.
	var candidates []Family
	cur := make(Family, 0, len(families))
	var rec func(i int)
	rec = func(i int) {
		if i == len(families) {
			candidates = append(candidates, dedupFamily(cur))
			return
		}
		for _, f := range families[i] {
			cur = append(cur, f)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	candidates = dedupFamilies(candidates)
	var minimal []Family
	for i, h := range candidates {
		isMin := true
		for j, h2 := range candidates {
			if i != j && familySubset(h2, h) && len(h2) < len(h) && hitsAll(h2, families) {
				isMin = false
				break
			}
		}
		// Also check proper subsets of h itself (drop one member).
		if isMin && len(h) > 1 {
			for drop := range h {
				sub := make(Family, 0, len(h)-1)
				sub = append(sub, h[:drop]...)
				sub = append(sub, h[drop+1:]...)
				if hitsAll(sub, families) {
					isMin = false
					break
				}
			}
		}
		if isMin {
			minimal = append(minimal, h)
		}
	}
	return dedupFamilies(minimal)
}

// UnionAll returns the union of every set in the family.
func UnionAll(f Family) Set {
	var u Set
	for _, s := range f {
		u = u.Union(s)
	}
	return u
}

func dedupFamily(f Family) Family {
	seen := make(map[string]bool, len(f))
	out := make(Family, 0, len(f))
	for _, s := range f {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessSet(out[i], out[j]) })
	return out
}

func dedupFamilies(fs []Family) []Family {
	seen := make(map[string]bool, len(fs))
	var out []Family
	for _, f := range fs {
		keys := make([]string, len(f))
		for i, s := range f {
			keys[i] = s.Key()
		}
		k := strings.Join(keys, "\x1e")
		if !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// familySubset reports whether every member set of a appears in b.
func familySubset(a, b Family) bool {
	bk := make(map[string]bool, len(b))
	for _, s := range b {
		bk[s.Key()] = true
	}
	for _, s := range a {
		if !bk[s.Key()] {
			return false
		}
	}
	return true
}

// hitsAll reports whether h intersects every family: for each family there
// is a member of h equal to one of the family's sets.
func hitsAll(h Family, families []Family) bool {
	hk := make(map[string]bool, len(h))
	for _, s := range h {
		hk[s.Key()] = true
	}
	for _, fam := range families {
		hit := false
		for _, s := range fam {
			if hk[s.Key()] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}
