// Package prob implements the local probability models of the PXML paper:
// object probability functions (OPFs, Definition 3.8) mapping an object's
// potential child sets to probabilities, and value probability functions
// (VPFs, Definition 3.9) mapping a leaf's domain values to probabilities.
// It also provides the compact independent-children OPF representation that
// Section 3.2 sketches and Section 8 identifies as the ProTDB special case.
package prob

import (
	"fmt"
	"math"
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
type OPF struct {
	entries map[string]OPFEntry
	// sorted caches the canonical-order entry slice behind Each/Entries.
	// Built lazily on first iteration and dropped on mutation, it makes
	// every OPF traversal deterministic — floating-point sums come out
	// bit-identical across runs, which result caching relies on — and
	// replaces map iteration with a slice walk on the query hot paths.
	// Concurrent builders may race benignly: both compute the same slice.
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

// OPFEntry is one (child set, probability) pair of an OPF.
type OPFEntry struct {
	Set  sets.Set
	Prob float64
}

// Put assigns probability p to the child set c, replacing any previous
// assignment for the same set.
func (w *OPF) Put(c sets.Set, p float64) {
	w.entries[c.Key()] = OPFEntry{Set: c, Prob: p}
	w.sorted.Store(nil)
}

// Add accumulates probability p onto the child set c.
func (w *OPF) Add(c sets.Set, p float64) {
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
func (w *OPF) Prob(c sets.Set) float64 { return w.entries[c.Key()].Prob }

// Len returns the number of stored entries.
func (w *OPF) Len() int { return len(w.entries) }

// sortedEntries returns the cached canonical-order slice, building it on
// first use. Callers must not mutate the result.
func (w *OPF) sortedEntries() []OPFEntry {
	if p := w.sorted.Load(); p != nil {
		return *p
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
	c := &OPF{entries: make(map[string]OPFEntry, len(w.entries))}
	for k, e := range w.entries {
		c.entries[k] = e
	}
	return c
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
	var kept []OPFEntry
	norm := 0.0
	for _, e := range w.sortedEntries() {
		if pred(e.Set) {
			kept = append(kept, e)
			norm += e.Prob
		}
	}
	if norm <= 0 {
		return nil, 0, false
	}
	out := NewOPFSized(len(kept))
	for i := range kept {
		kept[i].Prob /= norm
		out.entries[kept[i].Set.Key()] = kept[i]
	}
	// A filtered canonical slice is the result's canonical slice.
	out.sorted.Store(&kept)
	return out, norm, true
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
	for _, e := range w.entries {
		if e.Prob > 0 {
			ss = append(ss, e.Set)
		}
	}
	sort.Slice(ss, func(i, j int) bool { return lessEntry(ss[i], ss[j]) })
	return ss
}

// String renders the OPF as a probability table for debugging.
func (w *OPF) String() string {
	var b strings.Builder
	for _, e := range w.Entries() {
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
// Σ_v ω(v) = 1 (Definition 3.9).
type VPF struct {
	probs map[string]float64
}

// NewVPF returns an empty VPF.
func NewVPF() *VPF { return &VPF{probs: make(map[string]float64)} }

// NewVPFSized returns an empty VPF with capacity for n entries.
func NewVPFSized(n int) *VPF { return &VPF{probs: make(map[string]float64, n)} }

// VPFEntry is one (value, probability) pair of a VPF.
type VPFEntry struct {
	Value string
	Prob  float64
}

// Put assigns probability p to value v.
func (w *VPF) Put(v string, p float64) { w.probs[v] = p }

// Prob returns ω(v), zero when v has no entry.
func (w *VPF) Prob(v string) float64 { return w.probs[v] }

// Len returns the number of stored entries.
func (w *VPF) Len() int { return len(w.probs) }

// Entries returns all entries sorted by value.
func (w *VPF) Entries() []VPFEntry {
	es := make([]VPFEntry, 0, len(w.probs))
	for v, p := range w.probs {
		es = append(es, VPFEntry{Value: v, Prob: p})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Value < es[j].Value })
	return es
}

// Mass returns the total stored probability.
func (w *VPF) Mass() float64 {
	total := 0.0
	for _, p := range w.probs {
		total += p
	}
	return total
}

// Validate reports an error unless every probability lies in [0,1] and the
// total mass is 1 within Tolerance.
func (w *VPF) Validate() error {
	total := 0.0
	for v, p := range w.probs {
		if p < -Tolerance || p > 1+Tolerance || math.IsNaN(p) {
			return fmt.Errorf("prob: VPF value %q has probability %v outside [0,1]", v, p)
		}
		total += p
	}
	if math.Abs(total-1) > Tolerance {
		return fmt.Errorf("prob: VPF mass %v != 1", total)
	}
	return nil
}

// Clone returns a deep copy.
func (w *VPF) Clone() *VPF {
	c := NewVPF()
	for v, p := range w.probs {
		c.probs[v] = p
	}
	return c
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
