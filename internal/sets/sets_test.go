package sets

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewSetCanonical(t *testing.T) {
	s := NewSet("b", "a", "b", "c", "a")
	if got, want := s, (Set{"a", "b", "c"}); !reflect.DeepEqual(got, want) {
		t.Errorf("NewSet = %v, want %v", got, want)
	}
	if NewSet() != nil {
		t.Error("empty NewSet should be nil")
	}
	if s.Key() == NewSet("a", "b").Key() {
		t.Error("distinct sets share a key")
	}
	if s.String() != "{a, b, c}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet("a", "b", "c")
	b := NewSet("b", "c", "d")
	if got, want := a.Union(b), NewSet("a", "b", "c", "d"); !got.Equal(want) {
		t.Errorf("Union = %v", got)
	}
	if got, want := a.Intersect(b), NewSet("b", "c"); !got.Equal(want) {
		t.Errorf("Intersect = %v", got)
	}
	if got, want := a.Minus(b), NewSet("a"); !got.Equal(want) {
		t.Errorf("Minus = %v", got)
	}
	if !NewSet("b").SubsetOf(a) || NewSet("d").SubsetOf(a) || !Set(nil).SubsetOf(a) {
		t.Error("SubsetOf misbehaves")
	}
	if !a.Contains("b") || a.Contains("z") {
		t.Error("Contains misbehaves")
	}
	c := a.Clone()
	c[0] = "z"
	if a[0] != "a" {
		t.Error("Clone aliases original")
	}
}

func TestQuickSetAlgebraLaws(t *testing.T) {
	var padding Set
	for c := 'c'; c < 'c'+60; c += 2 {
		padding = append(padding, string(c))
	}
	gen := func(r *rand.Rand) Set {
		n := r.Intn(6)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = string(rune('a' + r.Intn(8)))
		}
		return NewSet(ids...)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		// Commutativity and inclusion laws.
		if !a.Union(b).Equal(b.Union(a)) || !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Intersect(b).SubsetOf(a) || !a.SubsetOf(a.Union(b)) {
			return false
		}
		// |A∪B| = |A| + |B| − |A∩B|.
		if a.Union(b).Len() != a.Len()+b.Len()-a.Intersect(b).Len() {
			return false
		}
		// |A∩B| without building it: by merge, and by search against a set
		// more than eight times the longer.
		wide := b.Union(padding)
		if a.IntersectLen(b) != a.Intersect(b).Len() ||
			a.IntersectLen(wide) != a.Intersect(wide).Len() || wide.IntersectLen(a) != a.IntersectLen(wide) {
			return false
		}
		// (A\B) ∪ (A∩B) = A.
		return a.Minus(b).Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalValidate(t *testing.T) {
	cases := []struct {
		iv Interval
		ok bool
	}{
		{Interval{0, 0}, true},
		{Interval{1, 2}, true},
		{Interval{-1, 2}, false},
		{Interval{3, 2}, false},
	}
	for _, c := range cases {
		err := c.iv.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) err=%v, ok=%v", c.iv, err, c.ok)
		}
	}
	if !(Interval{1, 2}).Contains(2) || (Interval{1, 2}).Contains(0) {
		t.Error("Contains misbehaves")
	}
	if (Interval{1, 2}).String() != "[1,2]" {
		t.Error("String format")
	}
}

// TestBoundedSubsetsExample reproduces Example 3.2: lch(B1, author) =
// {A1, A2} with card [1,2] yields potential sets {{A1},{A2},{A1,A2}}.
func TestBoundedSubsetsExample(t *testing.T) {
	got := BoundedSubsets(NewSet("A1", "A2"), Interval{1, 2})
	want := []Set{NewSet("A1"), NewSet("A2"), NewSet("A1", "A2")}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("subset %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBoundedSubsetsEdgeCases(t *testing.T) {
	u := NewSet("a", "b", "c")
	if got := BoundedSubsets(u, Interval{0, 0}); len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("card [0,0] = %v", got)
	}
	if got := BoundedSubsets(u, Interval{4, 9}); got != nil {
		t.Errorf("unsatisfiable card = %v", got)
	}
	if got := BoundedSubsets(u, Interval{0, 3}); len(got) != 8 {
		t.Errorf("full powerset size = %d, want 8", len(got))
	}
	if got := BoundedSubsets(nil, Interval{0, 2}); len(got) != 1 {
		t.Errorf("empty universe = %v", got)
	}
}

func TestCountBoundedSubsetsMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(8)
		lo := r.Intn(4)
		hi := lo + r.Intn(4)
		u := make([]string, n)
		for i := range u {
			u[i] = string(rune('a' + i))
		}
		want := len(BoundedSubsets(NewSet(u...), Interval{lo, hi}))
		got := CountBoundedSubsets(n, Interval{lo, hi}, 1<<20)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

func TestCountBoundedSubsetsCap(t *testing.T) {
	if got := CountBoundedSubsets(40, Interval{0, 40}, 1000); got != 1001 {
		t.Errorf("capped count = %d, want 1001", got)
	}
}

// TestUnionProductBibliography checks PC(B1) for the Figure 2 instance:
// authors {A1,A2} card [1,2], titles {T1} card [0,1] give exactly the six
// potential child sets listed in the paper's OPF table for B1.
func TestUnionProductBibliography(t *testing.T) {
	authors := Family(BoundedSubsets(NewSet("A1", "A2"), Interval{1, 2}))
	titles := Family(BoundedSubsets(NewSet("T1"), Interval{0, 1}))
	got := UnionProduct([]Family{authors, titles})
	want := []Set{
		NewSet("A1"), NewSet("A2"),
		NewSet("A1", "A2"), NewSet("A1", "T1"), NewSet("A2", "T1"),
		NewSet("A1", "A2", "T1"),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d sets %v, want %d", len(got), got, len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("set %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUnionProductEmptyFamilies(t *testing.T) {
	if got := UnionProduct(nil); len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("UnionProduct(nil) = %v", got)
	}
	// A family with no candidate sets annihilates the product (no valid
	// child set exists).
	got := UnionProduct([]Family{{NewSet("a")}, {}})
	if len(got) != 0 {
		t.Errorf("annihilated product = %v", got)
	}
}

// TestUnionProductMatchesHittingSets verifies that when the per-label
// families are pairwise disjoint as collections of sets (no shared member,
// in particular at most one family containing ∅), the fast UnionProduct
// computation produces exactly the unions of the minimal hitting sets of
// Definition 3.6. When several families share the empty set (several labels
// with card.min = 0) the hitting-set minimality rule collapses choices and
// the literal definition diverges from the evidently intended one-set-per-
// label semantics used by the paper's experiments; PXML uses UnionProduct.
func TestUnionProductMatchesHittingSets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nf := 1 + r.Intn(3)
		fams := make([]Family, nf)
		base := 0
		for i := range fams {
			// Disjoint universes across families.
			n := 1 + r.Intn(3)
			u := make([]string, n)
			for j := range u {
				u[j] = string(rune('a' + base + j))
			}
			base += n
			// Only the first family may contain the empty set, keeping
			// family collections pairwise disjoint.
			lo := r.Intn(2)
			if i > 0 {
				lo = 1
			}
			hi := lo + r.Intn(n)
			fams[i] = Family(BoundedSubsets(NewSet(u...), Interval{lo, hi}))
			if len(fams[i]) == 0 {
				fams[i] = Family{NewSet(u[0])}
			}
		}
		fast := UnionProduct(fams)
		hs := MinimalHittingSets(fams)
		slow := make([]Set, 0, len(hs))
		seen := make(map[string]bool)
		for _, h := range hs {
			u := UnionAll(h)
			if !seen[u.Key()] {
				seen[u.Key()] = true
				slow = append(slow, u)
			}
		}
		SortSets(slow)
		if len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if !fast[i].Equal(slow[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimalHittingSetsBasics(t *testing.T) {
	// Single family: each member alone is a minimal hitting set.
	fam := Family{NewSet("a"), NewSet("b")}
	hs := MinimalHittingSets([]Family{fam})
	if len(hs) != 2 {
		t.Fatalf("hitting sets = %v", hs)
	}
	// Empty family cannot be hit.
	if hs := MinimalHittingSets([]Family{{}}); hs != nil {
		t.Errorf("hitting sets of empty family = %v", hs)
	}
	// Shared member across two families: {x} hits both and is the unique
	// minimal hitting set containing it; pairs of distinct members are
	// minimal only if they avoid x.
	x := NewSet("x")
	hs = MinimalHittingSets([]Family{{x, NewSet("a")}, {x, NewSet("b")}})
	foundSingleton := false
	for _, h := range hs {
		if len(h) == 1 && h[0].Equal(x) {
			foundSingleton = true
		}
		if len(h) == 2 {
			// A 2-element hitting set must not contain x (else {x} ⊂ H hits).
			for _, s := range h {
				if s.Equal(x) {
					t.Errorf("non-minimal hitting set %v", h)
				}
			}
		}
	}
	if !foundSingleton {
		t.Errorf("missing singleton hitting set {x}: %v", hs)
	}
}

// TestHittingSetDivergenceDocumented pins down the known divergence between
// the literal Definition 3.6 and the union-product semantics PXML uses:
// with two labels that both admit zero children, {∅} is a minimal hitting
// set of both families, so minimality excludes the mixed singleton choices
// from the literal construction while UnionProduct keeps them.
func TestHittingSetDivergenceDocumented(t *testing.T) {
	famA := Family{NewSet(), NewSet("a")}
	famB := Family{NewSet(), NewSet("b")}
	fast := UnionProduct([]Family{famA, famB})
	if len(fast) != 4 { // ∅, {a}, {b}, {a,b}
		t.Fatalf("UnionProduct = %v, want 4 sets", fast)
	}
	hs := MinimalHittingSets([]Family{famA, famB})
	unions := map[string]bool{}
	for _, h := range hs {
		unions[UnionAll(h).Key()] = true
	}
	if unions[NewSet("a").Key()] || unions[NewSet("b").Key()] {
		t.Errorf("literal hitting sets unexpectedly include singletons: %v", hs)
	}
	if !unions[NewSet().Key()] || !unions[NewSet("a", "b").Key()] {
		t.Errorf("literal hitting sets missing ∅ or {a,b}: %v", hs)
	}
}
