package prob_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pxml/internal/gen"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// genOPFs returns the OPFs of a generated tree: random distributions over
// all subsets of three children, under one or several labels.
func genOPFs(t *testing.T) []*prob.OPF {
	t.Helper()
	var out []*prob.OPF
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		in, err := gen.Generate(gen.Config{Depth: 3, Branch: 3, Labeling: lab, Seed: 7, LeafDomainSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range in.PI.SortedOPFObjects() {
			out = append(out, in.PI.OPF(o))
		}
	}
	return out
}

// accumulated is the Add-built twin of an entry list.
func accumulated(es []prob.OPFEntry) *prob.OPF {
	w := prob.NewOPF()
	for _, e := range es {
		w.Add(e.Set, e.Prob)
	}
	return w
}

// sameOPF fails t unless a and b are indistinguishable through every reader.
func sameOPF(t *testing.T, what string, a, b *prob.OPF) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d vs %d", what, a.Len(), b.Len())
	}
	if !reflect.DeepEqual(a.Entries(), b.Entries()) {
		t.Fatalf("%s: Entries differ:\n%v\n%v", what, a.Entries(), b.Entries())
	}
	if !reflect.DeepEqual(a.Support(), b.Support()) {
		t.Fatalf("%s: Support differs", what)
	}
	if math.Float64bits(a.Mass()) != math.Float64bits(b.Mass()) {
		t.Fatalf("%s: Mass %v vs %v", what, a.Mass(), b.Mass())
	}
	if (a.Validate() == nil) != (b.Validate() == nil) {
		t.Fatalf("%s: Validate %v vs %v", what, a.Validate(), b.Validate())
	}
	viaEach := []prob.OPFEntry{}
	a.Each(func(c sets.Set, p float64) { viaEach = append(viaEach, prob.OPFEntry{Set: c, Prob: p}) })
	if !reflect.DeepEqual(viaEach, b.Entries()) {
		t.Fatalf("%s: Each differs from Entries", what)
	}
	for _, e := range b.Entries() {
		if got := a.Prob(e.Set); got != e.Prob {
			t.Fatalf("%s: Prob(%s) = %v, want %v", what, e.Set, got, e.Prob)
		}
		// A set no entry has: the member's own plus one nothing contains.
		absent := e.Set.Union(sets.NewSet("~absent"))
		if got := a.Prob(absent); got != 0 {
			t.Fatalf("%s: Prob(%s) = %v for an absent set", what, absent, got)
		}
	}
}

// TestSealedEqualsAccumulated holds an OPF adopted by OPFFromSorted to the
// Add-built OPF over the same entries, through every reader and operator,
// and again after the sealed one has been mutated.
func TestSealedEqualsAccumulated(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for i, src := range genOPFs(t) {
		es := src.Entries()
		sealed, twin := prob.OPFFromSorted(slices.Clone(es)), accumulated(es)
		sameOPF(t, "fresh", sealed, twin)

		member := es[r.Intn(len(es))].Set
		pred := func(c sets.Set) bool { return member.SubsetOf(c) }
		cs, ns, oks := sealed.Condition(pred)
		ct, nt, okt := twin.Condition(pred)
		if oks != okt || math.Float64bits(ns) != math.Float64bits(nt) {
			t.Fatalf("OPF %d: Condition norm %v/%v vs %v/%v", i, ns, oks, nt, okt)
		}
		if oks {
			sameOPF(t, "Condition", cs, ct)
		}
		dropped := es[len(es)-1].Set[:1]
		sameOPF(t, "MarginalizeDrop", sealed.MarginalizeDrop(dropped), twin.MarginalizeDrop(dropped))
		other := prob.OPFFromSorted([]prob.OPFEntry{{Set: nil, Prob: 0.25}, {Set: sets.NewSet("~p"), Prob: 0.75}})
		sameOPF(t, "Product", sealed.Product(other), twin.Product(other))
		sameOPF(t, "Product (right)", other.Product(sealed), other.Product(twin))
		sameOPF(t, "Clone", sealed.Clone(), twin.Clone())

		// Normalize a halved copy of each: same rescaling, bit for bit.
		halve := func(w *prob.OPF) *prob.OPF {
			half := slices.Clone(w.Entries())
			for j := range half {
				half[j].Prob /= 2
			}
			return prob.OPFFromSorted(half)
		}
		hs, ht := halve(sealed), accumulated(halve(twin).Entries())
		if err := hs.Normalize(); err != nil {
			t.Fatal(err)
		}
		if err := ht.Normalize(); err != nil {
			t.Fatal(err)
		}
		sameOPF(t, "Normalize", hs, ht)

		// A sealed OPF stays mutable: Put and Add index it first.
		fresh := sets.NewSet("~new")
		sc, tc := sealed.Clone(), twin.Clone()
		sc.Put(fresh, 0.125)
		tc.Put(fresh, 0.125)
		sc.Put(member, 0.5)
		tc.Put(member, 0.5)
		sameOPF(t, "after Put", sc, tc)
		sc, tc = sealed.Clone(), twin.Clone()
		sc.Add(member, 0.25)
		tc.Add(member, 0.25)
		sc.Add(fresh, 0.0625)
		tc.Add(fresh, 0.0625)
		sameOPF(t, "after Add", sc, tc)
		// The clone took the writes; the original is as it was.
		sameOPF(t, "original after clone's writes", sealed, twin)
	}
}

// TestOPFFromSortedFallback: input that is not strictly ascending is
// accumulated (a repeated set sums) and the slice is not adopted.
func TestOPFFromSortedFallback(t *testing.T) {
	a, b, ab := sets.NewSet("a"), sets.NewSet("b"), sets.NewSet("a", "b")
	for name, es := range map[string][]prob.OPFEntry{
		"unsorted":  {{Set: ab, Prob: 0.5}, {Set: a, Prob: 0.25}, {Set: nil, Prob: 0.125}, {Set: b, Prob: 0.125}},
		"same size": {{Set: b, Prob: 0.5}, {Set: a, Prob: 0.5}},
		"repeated":  {{Set: a, Prob: 0.25}, {Set: a, Prob: 0.5}, {Set: ab, Prob: 0.25}},
	} {
		w := prob.OPFFromSorted(es)
		sameOPF(t, name, w, accumulated(es))
		before := w.Entries()
		for i := range es {
			es[i].Prob = -1
		}
		if !reflect.DeepEqual(w.Entries(), before) {
			t.Errorf("%s: OPF aliases a slice it did not adopt", name)
		}
	}
	if got := prob.OPFFromSorted([]prob.OPFEntry{{Set: a, Prob: 0.25}, {Set: a, Prob: 0.5}}).Prob(a); got != 0.75 {
		t.Errorf("repeated set: Prob = %v, want the sum 0.75", got)
	}
	if w := prob.OPFFromSorted(nil); w.Len() != 0 || w.Mass() != 0 || w.Prob(a) != 0 {
		t.Errorf("empty input: %v", w)
	}
}

// TestVPFFromSorted: a sealed VPF reads like a Put-built one, stays
// mutable, and input that is not strictly ascending keeps the last value.
func TestVPFFromSorted(t *testing.T) {
	es := []prob.VPFEntry{{Value: "a", Prob: 0.125}, {Value: "b", Prob: 0.5}, {Value: "c", Prob: 0.375}}
	sealed, twin := prob.VPFFromSorted(slices.Clone(es)), prob.NewVPF()
	for _, e := range es {
		twin.Put(e.Value, e.Prob)
	}
	same := func(what string, a, b *prob.VPF) {
		t.Helper()
		if a.Len() != b.Len() || !reflect.DeepEqual(a.Entries(), b.Entries()) ||
			math.Float64bits(a.Mass()) != math.Float64bits(b.Mass()) || (a.Validate() == nil) != (b.Validate() == nil) {
			t.Fatalf("%s: %v vs %v", what, a.Entries(), b.Entries())
		}
		for _, v := range []string{"a", "b", "c", "d", ""} {
			if a.Prob(v) != b.Prob(v) {
				t.Fatalf("%s: Prob(%q) %v vs %v", what, v, a.Prob(v), b.Prob(v))
			}
		}
		var viaEach []prob.VPFEntry
		a.Each(func(v string, p float64) { viaEach = append(viaEach, prob.VPFEntry{Value: v, Prob: p}) })
		if !reflect.DeepEqual(viaEach, b.Entries()) {
			t.Fatalf("%s: Each %v vs Entries %v", what, viaEach, b.Entries())
		}
	}
	same("fresh", sealed, twin)
	same("Clone", sealed.Clone(), twin.Clone())
	sc, tc := sealed.Clone(), twin.Clone()
	sc.Put("d", 0.25)
	tc.Put("d", 0.25)
	sc.Put("a", 0)
	tc.Put("a", 0)
	same("after Put", sc, tc)
	same("original after clone's writes", sealed, twin)

	last := prob.VPFFromSorted([]prob.VPFEntry{{Value: "b", Prob: 0.9}, {Value: "a", Prob: 0.5}, {Value: "b", Prob: 0.5}})
	if last.Len() != 2 || last.Prob("b") != 0.5 || last.Prob("a") != 0.5 {
		t.Errorf("repeated value: %v, want the last to win", last.Entries())
	}
}

// TestVPFMassReproducible: sums walk the by-value order, not the map, so
// they repeat bit for bit (these five sum to 1 or to 0.9999999999999999
// depending on where the walk starts).
func TestVPFMassReproducible(t *testing.T) {
	build := func() *prob.VPF {
		w := prob.NewVPF()
		for i, v := range []string{"e", "b", "d", "a", "c"} {
			w.Put(v, []float64{0.1, 0.1, 0.1, 0.1, 0.6}[i])
		}
		return w
	}
	want := math.Float64bits(build().Mass())
	for i := 0; i < 200; i++ {
		w := build()
		if got := math.Float64bits(w.Mass()); got != want {
			t.Fatalf("repeat %d: Mass bits %x, want %x", i, got, want)
		}
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
