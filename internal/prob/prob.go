// Package prob implements the local probability models of the PXML paper:
// object probability functions (OPFs, Definition 3.8) mapping an object's
// potential child sets to probabilities, and value probability functions
// (VPFs, Definition 3.9) mapping a leaf's domain values to probabilities.
// It also provides the compact independent-children OPF representation that
// Section 3.2 sketches and Section 8 identifies as the ProTDB special case.
package prob

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"pxml/internal/sets"
)

// Tolerance is the absolute slack allowed when checking that a distribution
// sums to one. Probabilities are combined multiplicatively across object
// chains, so a tight tolerance keeps the global semantics coherent.
const Tolerance = 1e-9

// OPF is an object probability function ω : PC(o) → [0,1] with
// Σ_c ω(c) = 1 (Definition 3.8). Entries with probability zero may be
// stored explicitly; Prob returns 0 for absent sets.
//
// An OPF has two representations. While it is being built, entries are
// indexed by Set.Key() so Put and Add can accumulate. A sealed OPF
// (OPFFromSorted, Condition, Clone of a sealed one) has no index and no key
// strings: its canonical-order slice is all there is, which is what every
// reader walks anyway. The first Put or Add on a sealed OPF builds the
// index, so any OPF stays mutable until it is installed in an instance.
type OPF struct {
	// entries is nil exactly when the OPF is sealed.
	entries map[string]OPFEntry
	// sorted is the canonical-order entry slice behind every traversal: the
	// whole representation of a sealed OPF, a cache otherwise (built lazily
	// on first iteration, dropped on mutation). Walking it makes every OPF
	// traversal deterministic — floating-point sums come out bit-identical
	// across runs, which result caching relies on — and replaces map
	// iteration with a slice walk on the query hot paths. Concurrent
	// builders may race benignly: both compute the same slice.
	sorted atomic.Pointer[[]OPFEntry]
}

// NewOPF returns an empty OPF.
func NewOPF() *OPF {
	return &OPF{entries: make(map[string]OPFEntry)}
}

// NewOPFSized returns an empty OPF with capacity for n entries, for
// loaders that know the entry count upfront.
func NewOPFSized(n int) *OPF {
	return &OPF{entries: make(map[string]OPFEntry, n)}
}

// OPFFromSorted returns the OPF holding es. When the sets are strictly
// ascending in canonical order (size, then lexicographic) the slice is
// adopted as the sealed representation without a copy, an index or a key
// string per entry, and the caller must not use it afterwards; otherwise the
// entries are accumulated with Add in the order given, so a repeated set
// sums. It is sets.FromSorted for local functions: bulk loaders that decode
// entries in canonical order skip the accumulation.
func OPFFromSorted(es []OPFEntry) *OPF {
	for i := 1; i < len(es); i++ {
		if !lessEntry(es[i-1].Set, es[i].Set) {
			w := NewOPFSized(len(es))
			for _, e := range es {
				w.Add(e.Set, e.Prob)
			}
			return w
		}
	}
	return sealedOPF(es)
}

// sealedOPF adopts a slice known to be in strict canonical order.
func sealedOPF(es []OPFEntry) *OPF {
	w := new(OPF)
	w.sorted.Store(&es)
	return w
}

// OPFEntry is one (child set, probability) pair of an OPF.
type OPFEntry struct {
	Set  sets.Set
	Prob float64
}

// index gives a sealed OPF the keyed index Put and Add accumulate in.
func (w *OPF) index() {
	es := w.sortedEntries()
	w.entries = make(map[string]OPFEntry, len(es)+1)
	for _, e := range es {
		w.entries[e.Set.Key()] = e
	}
}

// Put assigns probability p to the child set c, replacing any previous
// assignment for the same set.
func (w *OPF) Put(c sets.Set, p float64) {
	if w.entries == nil {
		w.index()
	}
	w.entries[c.Key()] = OPFEntry{Set: c, Prob: p}
	w.sorted.Store(nil)
}

// Add accumulates probability p onto the child set c.
func (w *OPF) Add(c sets.Set, p float64) {
	if w.entries == nil {
		w.index()
	}
	k := c.Key()
	e, ok := w.entries[k]
	if !ok {
		e.Set = c
	}
	e.Prob += p
	w.entries[k] = e
	w.sorted.Store(nil)
}

// Prob returns ω(c), zero when c has no entry.
func (w *OPF) Prob(c sets.Set) float64 {
	if w.entries != nil {
		return w.entries[c.Key()].Prob
	}
	es := w.sortedEntries()
	i := sort.Search(len(es), func(i int) bool { return !lessEntry(es[i].Set, c) })
	if i < len(es) && es[i].Set.Equal(c) {
		return es[i].Prob
	}
	return 0
}

// Len returns the number of stored entries.
func (w *OPF) Len() int {
	if w.entries != nil {
		return len(w.entries)
	}
	return len(w.sortedEntries())
}

// sortedEntries returns the canonical-order slice, building it from the
// index on first use. Callers must not mutate the result.
func (w *OPF) sortedEntries() []OPFEntry {
	if p := w.sorted.Load(); p != nil {
		return *p
	}
	if w.entries == nil {
		return nil
	}
	es := make([]OPFEntry, 0, len(w.entries))
	for _, e := range w.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return lessEntry(es[i].Set, es[j].Set) })
	w.sorted.Store(&es)
	return es
}

// Entries returns all stored entries in canonical order (set size, then
// lexicographic). The returned slice is the caller's to keep.
func (w *OPF) Entries() []OPFEntry {
	es := w.sortedEntries()
	out := make([]OPFEntry, len(es))
	copy(out, es)
	return out
}

// Each calls fn for every stored entry in canonical order; it avoids the
// allocation of Entries on hot paths, and its deterministic order keeps
// floating-point accumulations reproducible run to run.
func (w *OPF) Each(fn func(c sets.Set, p float64)) {
	for _, e := range w.sortedEntries() {
		fn(e.Set, e.Prob)
	}
}

// Mass returns the total stored probability Σ_c ω(c).
func (w *OPF) Mass() float64 {
	total := 0.0
	for _, e := range w.sortedEntries() {
		total += e.Prob
	}
	return total
}

// Validate reports an error unless every probability lies in [0,1] and the
// total mass is 1 within Tolerance.
func (w *OPF) Validate() error {
	total := 0.0
	for _, e := range w.sortedEntries() {
		if e.Prob < -Tolerance || e.Prob > 1+Tolerance || math.IsNaN(e.Prob) {
			return fmt.Errorf("prob: OPF entry %s has probability %v outside [0,1]", e.Set, e.Prob)
		}
		total += e.Prob
	}
	if math.Abs(total-1) > Tolerance {
		return fmt.Errorf("prob: OPF mass %v != 1", total)
	}
	return nil
}

// Normalize rescales all entries so the mass is 1. It returns an error when
// the mass is zero (no distribution can be recovered), the situation
// Section 6.1 treats as an empty projection result.
func (w *OPF) Normalize() error {
	total := w.Mass()
	if total <= 0 {
		return fmt.Errorf("prob: cannot normalize OPF with mass %v", total)
	}
	for k, e := range w.entries {
		e.Prob /= total
		w.entries[k] = e
	}
	// Mass just built the canonical slice; rescaling it in step keeps it
	// valid, where dropping it would cost the next traversal a re-sort.
	es := w.sortedEntries()
	for i := range es {
		es[i].Prob /= total
	}
	return nil
}

// Clone returns a deep copy of the OPF. Child sets are shared (they are
// immutable by convention).
func (w *OPF) Clone() *OPF {
	if w.entries == nil {
		return sealedOPF(slices.Clone(w.sortedEntries()))
	}
	return &OPF{entries: maps.Clone(w.entries)}
}

// ProbContains returns P(member ∈ c) = Σ_{c ∋ member} ω(c), the building
// block of the chain-probability formula in Section 6.2.
func (w *OPF) ProbContains(member string) float64 {
	total := 0.0
	for _, e := range w.sortedEntries() {
		if e.Set.Contains(member) {
			total += e.Prob
		}
	}
	return total
}

// ConditionContains returns the OPF conditioned on the event that the given
// object is among the chosen children, together with the probability of
// that event. This is the per-ancestor update of the efficient selection
// algorithm: ω'(c) = ω(c)·1[member ∈ c] / P(member ∈ c). The second result
// is false when the event has probability zero.
func (w *OPF) ConditionContains(member string) (*OPF, float64, bool) {
	return w.Condition(func(c sets.Set) bool { return c.Contains(member) })
}

// Condition returns the OPF conditioned on an arbitrary predicate over
// child sets, with the probability of the predicate. The second result is
// false when the event has probability zero.
func (w *OPF) Condition(pred func(sets.Set) bool) (*OPF, float64, bool) {
	es := w.sortedEntries()
	return w.ConditionAt(func(i int) bool { return pred(es[i].Set) })
}

// ConditionAt is Condition for a predicate over the entries' positions in
// Each's order, for a caller that knows each entry's child set by position
// (such as a bitset view of it).
func (w *OPF) ConditionAt(keep func(i int) bool) (*OPF, float64, bool) {
	var kept []OPFEntry
	norm := 0.0
	for i, e := range w.sortedEntries() {
		if keep(i) {
			kept = append(kept, e)
			norm += e.Prob
		}
	}
	if norm <= 0 {
		return nil, 0, false
	}
	for i := range kept {
		kept[i].Prob /= norm
	}
	// A filtered canonical slice is the result's canonical slice.
	return sealedOPF(kept), norm, true
}

// MarginalizeDrop removes the given objects from every child set, summing
// the probabilities of sets that become identical. This is the
// marginalization step of the Section 6.1 projection update:
// ω'(c') = Σ_{d ⊆ dropped, c'∪d ∈ PC(o)} ω(c'∪d).
func (w *OPF) MarginalizeDrop(dropped sets.Set) *OPF {
	out := NewOPF()
	for _, e := range w.sortedEntries() {
		out.Add(e.Set.Minus(dropped), e.Prob)
	}
	return out
}

// Product returns the OPF over unions c ∪ c' for c from w and c' from v,
// with probability ω(c)·ω'(c'). This is exactly the root OPF of the
// Cartesian product operation (Definition 5.7); identical unions are
// merged by summation. The operand OPFs must range over disjoint object
// universes for the result to be a sensible distribution, which the
// Cartesian product guarantees by renaming.
func (w *OPF) Product(v *OPF) *OPF {
	out := NewOPF()
	ves := v.sortedEntries()
	for _, e1 := range w.sortedEntries() {
		for _, e2 := range ves {
			out.Add(e1.Set.Union(e2.Set), e1.Prob*e2.Prob)
		}
	}
	return out
}

// Support returns the child sets with strictly positive probability, in
// canonical order.
func (w *OPF) Support() []sets.Set {
	var ss []sets.Set
	for _, e := range w.sortedEntries() {
		if e.Prob > 0 {
			ss = append(ss, e.Set)
		}
	}
	return ss
}

// String renders the OPF as a probability table for debugging.
func (w *OPF) String() string {
	var b strings.Builder
	for _, e := range w.sortedEntries() {
		fmt.Fprintf(&b, "%s=%.6g ", e.Set, e.Prob)
	}
	return strings.TrimSpace(b.String())
}

func lessEntry(a, b sets.Set) bool {
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// VPF is a value probability function ω : dom(τ(o)) → [0,1] with
// Σ_v ω(v) = 1 (Definition 3.9). Like an OPF it is either indexed by value
// while Put builds it, or sealed: a by-value slice and nothing else.
type VPF struct {
	// probs is nil exactly when the VPF is sealed.
	probs map[string]float64
	// sorted is the by-value entry slice: the whole representation of a
	// sealed VPF, otherwise a cache built on first traversal and dropped by
	// Put. Every sum walks it, so masses are bit-identical across runs.
	sorted atomic.Pointer[[]VPFEntry]
}

// NewVPF returns an empty VPF.
func NewVPF() *VPF { return &VPF{probs: make(map[string]float64)} }

// NewVPFSized returns an empty VPF with capacity for n entries.
func NewVPFSized(n int) *VPF { return &VPF{probs: make(map[string]float64, n)} }

// VPFFromSorted returns the VPF holding es. When the values are strictly
// ascending the slice is adopted as the sealed representation and the
// caller must not use it afterwards; otherwise the entries are Put in the
// order given, so the last of a repeated value wins.
func VPFFromSorted(es []VPFEntry) *VPF {
	for i := 1; i < len(es); i++ {
		if es[i-1].Value >= es[i].Value {
			w := NewVPFSized(len(es))
			for _, e := range es {
				w.Put(e.Value, e.Prob)
			}
			return w
		}
	}
	return sealedVPF(es)
}

// sealedVPF adopts a slice known to be strictly ascending by value.
func sealedVPF(es []VPFEntry) *VPF {
	w := new(VPF)
	w.sorted.Store(&es)
	return w
}

// VPFEntry is one (value, probability) pair of a VPF.
type VPFEntry struct {
	Value string
	Prob  float64
}

// Put assigns probability p to value v.
func (w *VPF) Put(v string, p float64) {
	if w.probs == nil {
		es := w.sortedEntries()
		w.probs = make(map[string]float64, len(es)+1)
		for _, e := range es {
			w.probs[e.Value] = e.Prob
		}
	}
	w.probs[v] = p
	w.sorted.Store(nil)
}

// Prob returns ω(v), zero when v has no entry.
func (w *VPF) Prob(v string) float64 {
	if w.probs != nil {
		return w.probs[v]
	}
	es := w.sortedEntries()
	i := sort.Search(len(es), func(i int) bool { return es[i].Value >= v })
	if i < len(es) && es[i].Value == v {
		return es[i].Prob
	}
	return 0
}

// Len returns the number of stored entries.
func (w *VPF) Len() int {
	if w.probs != nil {
		return len(w.probs)
	}
	return len(w.sortedEntries())
}

// sortedEntries returns the by-value slice, building it from the index on
// first use. Callers must not mutate the result.
func (w *VPF) sortedEntries() []VPFEntry {
	if p := w.sorted.Load(); p != nil {
		return *p
	}
	if w.probs == nil {
		return nil
	}
	es := make([]VPFEntry, 0, len(w.probs))
	for v, p := range w.probs {
		es = append(es, VPFEntry{Value: v, Prob: p})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Value < es[j].Value })
	w.sorted.Store(&es)
	return es
}

// Entries returns all entries sorted by value. The returned slice is the
// caller's to keep.
func (w *VPF) Entries() []VPFEntry { return slices.Clone(w.sortedEntries()) }

// Each calls fn for every entry in value order without the allocation of
// Entries.
func (w *VPF) Each(fn func(v string, p float64)) {
	for _, e := range w.sortedEntries() {
		fn(e.Value, e.Prob)
	}
}

// Mass returns the total stored probability.
func (w *VPF) Mass() float64 {
	total := 0.0
	for _, e := range w.sortedEntries() {
		total += e.Prob
	}
	return total
}

// Validate reports an error unless every probability lies in [0,1] and the
// total mass is 1 within Tolerance.
func (w *VPF) Validate() error {
	total := 0.0
	for _, e := range w.sortedEntries() {
		if e.Prob < -Tolerance || e.Prob > 1+Tolerance || math.IsNaN(e.Prob) {
			return fmt.Errorf("prob: VPF value %q has probability %v outside [0,1]", e.Value, e.Prob)
		}
		total += e.Prob
	}
	if math.Abs(total-1) > Tolerance {
		return fmt.Errorf("prob: VPF mass %v != 1", total)
	}
	return nil
}

// Clone returns a deep copy.
func (w *VPF) Clone() *VPF {
	if w.probs == nil {
		return sealedVPF(slices.Clone(w.sortedEntries()))
	}
	return &VPF{probs: maps.Clone(w.probs)}
}

// PointMass returns a VPF that assigns probability one to v, the result of
// conditioning a leaf on a value selection val(p) = v.
func PointMass(v string) *VPF {
	w := NewVPF()
	w.Put(v, 1)
	return w
}

// Uniform returns the uniform VPF over the given values.
func Uniform(values []string) *VPF {
	w := NewVPF()
	if len(values) == 0 {
		return w
	}
	p := 1.0 / float64(len(values))
	for _, v := range values {
		w.Put(v, p)
	}
	return w
}

// IndependentOPF is the compact per-child representation sketched in
// Section 3.2: each potential child occurs independently with its own
// probability. Section 8 notes this is the ProTDB model as a special case
// of PXML. Expand converts it to the explicit OPF over all 2^n subsets.
type IndependentOPF struct {
	members []string
	p       map[string]float64
}

// NewIndependentOPF returns an empty independent OPF.
func NewIndependentOPF() *IndependentOPF {
	return &IndependentOPF{p: make(map[string]float64)}
}

// Put sets the independent existence probability of one child.
func (w *IndependentOPF) Put(member string, p float64) {
	if _, ok := w.p[member]; !ok {
		w.members = append(w.members, member)
		sort.Strings(w.members)
	}
	w.p[member] = p
}

// Prob returns the independent existence probability of member.
func (w *IndependentOPF) Prob(member string) float64 { return w.p[member] }

// Members returns the potential children in sorted order.
func (w *IndependentOPF) Members() []string {
	out := make([]string, len(w.members))
	copy(out, w.members)
	return out
}

// Validate reports an error unless every probability lies in [0,1].
func (w *IndependentOPF) Validate() error {
	for m, p := range w.p {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("prob: independent OPF member %q has probability %v outside [0,1]", m, p)
		}
	}
	return nil
}

// Expand materializes the explicit OPF: for every subset c of the members,
// ω(c) = Π_{m ∈ c} p(m) · Π_{m ∉ c} (1 − p(m)). The result has 2^n entries;
// callers must bound n (Expand refuses n > 30).
func (w *IndependentOPF) Expand() (*OPF, error) {
	n := len(w.members)
	if n > 30 {
		return nil, fmt.Errorf("prob: refusing to expand independent OPF with %d members", n)
	}
	out := NewOPF()
	for mask := 0; mask < 1<<n; mask++ {
		p := 1.0
		var ids []string
		for i, m := range w.members {
			if mask&(1<<i) != 0 {
				p *= w.p[m]
				ids = append(ids, m)
			} else {
				p *= 1 - w.p[m]
			}
		}
		out.Add(sets.NewSet(ids...), p)
	}
	return out, nil
}
