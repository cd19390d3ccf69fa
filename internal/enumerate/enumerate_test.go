package enumerate

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestTheorem1Figure2: the local interpretation of Figure 2 induces a
// coherent global interpretation — probabilities over all compatible
// instances sum to one (Theorem 1).
func TestTheorem1Figure2(t *testing.T) {
	pi := fixtures.Figure2()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(gi.TotalMass(), 1) {
		t.Errorf("total mass = %v, want 1", gi.TotalMass())
	}
	if gi.Len() == 0 {
		t.Fatal("no worlds enumerated")
	}
	// Every enumerated world is compatible and carries exactly its
	// Definition 4.4 probability.
	for _, w := range gi.Worlds() {
		if err := pi.Compatible(w.S); err != nil {
			t.Fatalf("incompatible world: %v\n%s", err, w.S)
		}
		p, err := pi.InstanceProb(w.S)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(p, w.P) {
			t.Errorf("world prob %v != InstanceProb %v\n%s", w.P, p, w.S)
		}
	}
}

// TestEnumerateContainsS1: the Example 4.1 instance appears in the
// enumeration with its hand-computed probability.
func TestEnumerateContainsS1(t *testing.T) {
	pi := fixtures.Figure2()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := model.NewInstance("R")
	_ = s.RegisterType(model.NewType("title-type", "VQDB", "Lore"))
	_ = s.RegisterType(model.NewType("institution-type", "Stanford", "UMD"))
	for _, e := range [][3]string{
		{"R", "B1", "book"}, {"R", "B2", "book"},
		{"B1", "A1", "author"}, {"B1", "T1", "title"},
		{"B2", "A1", "author"}, {"B2", "A2", "author"},
		{"A1", "I1", "institution"}, {"A2", "I1", "institution"},
	} {
		_ = s.AddEdge(e[0], e[1], e[2])
	}
	_ = s.SetLeaf("T1", "title-type", "VQDB")
	_ = s.SetLeaf("I1", "institution-type", "Stanford")
	if got, want := gi.Prob(s), 0.2*0.35*0.4*0.8*0.5; !approx(got, want) {
		t.Errorf("P(S1) = %v, want %v", got, want)
	}
}

// TestQuickTheorem1: Theorem 1 as a property — random local
// interpretations always induce distributions of mass one, on trees and
// DAGs alike.
func TestQuickTheorem1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pi *core.ProbInstance
		if seed%2 == 0 {
			pi = fixtures.RandomTree(r)
		} else {
			pi = fixtures.RandomDAG(r)
		}
		if pi.NumObjects() > 14 {
			return true // keep enumeration tractable
		}
		gi, err := Enumerate(pi, 0)
		if err != nil {
			return false
		}
		return math.Abs(gi.TotalMass()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTheorem2RoundTrip: Theorem 2 as a property — factoring the
// induced global interpretation recovers a local interpretation that
// reproduces it exactly.
func TestQuickTheorem2RoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pi *core.ProbInstance
		if seed%2 == 0 {
			pi = fixtures.RandomTree(r)
		} else {
			pi = fixtures.RandomDAG(r)
		}
		if pi.NumObjects() > 11 {
			return true // keep enumeration tractable
		}
		gi, err := Enumerate(pi, 0)
		if err != nil {
			return false
		}
		rec := FactorLocal(gi, pi.Weak())
		ok, err := SatisfiesLocal(gi, rec, 1e-9)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestFactorLocalRecoversOPFs: for objects that occur with positive
// probability, the conditional child-set distribution of the global
// interpretation is exactly the original OPF (the independence property of
// Definition 4.5 holds by construction).
func TestFactorLocalRecoversOPFs(t *testing.T) {
	pi := fixtures.Figure2VariedLeaves()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := FactorLocal(gi, pi.Weak())
	for _, o := range []string{"R", "B1", "B2", "B3", "A1", "A2", "A3"} {
		orig, got := pi.OPF(o), rec.OPF(o)
		if got == nil {
			// Objects that can never occur need no recovered OPF; every
			// Figure 2 object can occur.
			t.Fatalf("no recovered OPF for %s", o)
		}
		for _, e := range orig.Entries() {
			if !approx(got.Prob(e.Set), e.Prob) {
				t.Errorf("recovered OPF(%s)(%s) = %v, want %v", o, e.Set, got.Prob(e.Set), e.Prob)
			}
		}
	}
	// Recovered VPF for T1 matches the varied leaf distribution.
	if got := rec.VPF("T1"); got == nil || !approx(got.Prob("VQDB"), 0.7) {
		t.Errorf("recovered VPF(T1) = %v", got)
	}
}

// TestNonFactoringGlobal: a correlated global interpretation is NOT
// reproduced by its factored local interpretation — the independence
// condition of Definition 4.5 / Theorem 2 is necessary.
func TestNonFactoringGlobal(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "u", "a")
	w.SetLCh("r", "v", "b")
	w.SetCard("r", "u", 1, 1)
	w.SetCard("r", "v", 1, 1)
	if err := w.RegisterType(model.NewType("bit", "0", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.SetLeafType("a", "bit"); err != nil {
		t.Fatal(err)
	}
	if err := w.SetLeafType("b", "bit"); err != nil {
		t.Fatal(err)
	}

	mk := func(va, vb string) *model.Instance {
		s := model.NewInstance("r")
		_ = s.RegisterType(model.NewType("bit", "0", "1"))
		_ = s.AddEdge("r", "a", "u")
		_ = s.AddEdge("r", "b", "v")
		_ = s.SetLeaf("a", "bit", va)
		_ = s.SetLeaf("b", "bit", vb)
		return s
	}
	gi := NewGlobalInterpretation()
	gi.Add(mk("0", "0"), 0.5) // values perfectly correlated
	gi.Add(mk("1", "1"), 0.5)

	rec := FactorLocal(gi, w)
	ok, err := SatisfiesLocal(gi, rec, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("correlated global interpretation factored exactly; it must not")
	}
	// The factored version spreads mass over all four value combinations.
	ind, err := Enumerate(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ind.Prob(mk("0", "1")); !approx(got, 0.25) {
		t.Errorf("factored P(0,1) = %v, want 0.25", got)
	}
}

func TestFilterNormalizes(t *testing.T) {
	pi := fixtures.Figure2()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Condition: B1 exists (cf. Example 5.2's R.book = B1).
	cond, ok := gi.Filter(func(s *model.Instance) bool { return s.HasObject("B1") })
	if !ok {
		t.Fatal("condition has zero probability")
	}
	if !approx(cond.TotalMass(), 1) {
		t.Errorf("conditioned mass = %v", cond.TotalMass())
	}
	// P(B1) = P({B1,B2}) + P({B1,B3}) + P({B1,B2,B3}) = 0.8 at the root;
	// conditioning scales each surviving world by 1/0.8.
	pB1 := gi.ProbWhere(func(s *model.Instance) bool { return s.HasObject("B1") })
	if !approx(pB1, 0.8) {
		t.Errorf("P(B1 exists) = %v, want 0.8", pB1)
	}
	if _, ok := gi.Filter(func(s *model.Instance) bool { return false }); ok {
		t.Error("zero-probability filter succeeded")
	}
}

func TestTransformMerges(t *testing.T) {
	gi := NewGlobalInterpretation()
	a := model.NewInstance("r")
	_ = a.AddEdge("r", "x", "l")
	b := model.NewInstance("r")
	_ = b.AddEdge("r", "y", "l")
	gi.Add(a, 0.25)
	gi.Add(b, 0.75)
	// Collapse everything to the bare root: worlds merge.
	out := gi.Transform(func(s *model.Instance) *model.Instance {
		return model.NewInstance(s.Root())
	})
	if out.Len() != 1 || !approx(out.TotalMass(), 1) {
		t.Errorf("merged worlds = %d mass = %v", out.Len(), out.TotalMass())
	}
	if got := out.Prob(model.NewInstance("r")); !approx(got, 1) {
		t.Errorf("merged prob = %v", got)
	}
}

func TestEnumerateErrors(t *testing.T) {
	// Cyclic weak instance graph.
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "l", "a")
	pi.SetLCh("a", "l", "b")
	pi.SetLCh("b", "l", "a")
	if _, err := Enumerate(pi, 0); err == nil {
		t.Error("cyclic instance enumerated")
	}

	// World limit.
	big := fixtures.Figure2()
	if _, err := Enumerate(big, 3); err == nil {
		t.Error("world limit not enforced")
	}
}

func TestAddMergesIdenticalWorlds(t *testing.T) {
	gi := NewGlobalInterpretation()
	s := model.NewInstance("r")
	gi.Add(s, 0.3)
	gi.Add(model.NewInstance("r"), 0.2)
	if gi.Len() != 1 || !approx(gi.TotalMass(), 0.5) {
		t.Errorf("len=%d mass=%v", gi.Len(), gi.TotalMass())
	}
}

func TestEqualToleratesMissingWorlds(t *testing.T) {
	a := NewGlobalInterpretation()
	b := NewGlobalInterpretation()
	s := model.NewInstance("r")
	a.Add(s, 1e-12)
	if !a.Equal(b, 1e-9) {
		t.Error("negligible world breaks equality")
	}
	a.Add(fixtures.Figure1(), 0.5)
	if a.Equal(b, 1e-9) {
		t.Error("distinct distributions equal")
	}
}

// TestWorldsOrderStable: Worlds sorts by descending probability.
func TestWorldsOrderStable(t *testing.T) {
	pi := fixtures.Figure2()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := gi.Worlds()
	for i := 1; i < len(ws); i++ {
		if ws[i-1].P < ws[i].P {
			t.Fatal("worlds not sorted by probability")
		}
	}
}

// TestEnumerateUntypedLeafUnitFactor: untyped leaves contribute no factor
// and no branching.
func TestEnumerateUntypedLeafUnitFactor(t *testing.T) {
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "l", "x")
	w := prob.NewOPF()
	w.Put(sets.NewSet("x"), 0.6)
	w.Put(sets.NewSet(), 0.4)
	pi.SetOPF("r", w)
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gi.Len() != 2 || !approx(gi.TotalMass(), 1) {
		t.Errorf("len=%d mass=%v", gi.Len(), gi.TotalMass())
	}
}

// TestTopKMatchesEnumeration: the best-first top-k worlds equal the head
// of the fully enumerated, probability-sorted world list.
func TestTopKMatchesEnumeration(t *testing.T) {
	pi := fixtures.Figure2VariedLeaves()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := gi.Worlds()
	for _, k := range []int{1, 3, 10, 500} {
		top, err := TopK(context.Background(), pi, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(top) != want {
			t.Fatalf("k=%d: got %d worlds, want %d", k, len(top), want)
		}
		for i, w := range top {
			if !approx(w.P, full[i].P) {
				t.Fatalf("k=%d world %d: p=%v, enumeration %v", k, i, w.P, full[i].P)
			}
			// Every returned world carries exactly its Definition 4.4
			// probability.
			p, err := pi.InstanceProb(w.S)
			if err != nil {
				t.Fatalf("k=%d world %d incompatible: %v", k, i, err)
			}
			if !approx(p, w.P) {
				t.Fatalf("k=%d world %d: stored %v, recomputed %v", k, i, w.P, p)
			}
		}
	}
}

// TestQuickTopKMatchesEnumeration: top-3 agrees with enumeration on random
// trees and DAGs.
func TestQuickTopKMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pi *core.ProbInstance
		if seed%2 == 0 {
			pi = fixtures.RandomTree(r)
		} else {
			pi = fixtures.RandomDAG(r)
		}
		if pi.NumObjects() > 12 {
			return true
		}
		gi, err := Enumerate(pi, 0)
		if err != nil {
			return false
		}
		full := gi.Worlds()
		top, err := TopK(context.Background(), pi, 3, 0)
		if err != nil {
			return false
		}
		for i := range top {
			if i >= len(full) {
				return false
			}
			if math.Abs(top[i].P-full[i].P) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKLargeInstance: top-1 on an instance whose full domain is
// astronomically large (the whole point of the best-first search).
func TestTopKLargeInstance(t *testing.T) {
	pi := core.NewProbInstance("r")
	// A 40-object chain with strongly skewed choices: keeping every link
	// (0.99 each, ≈0.669 total) beats dropping even the first (0.01), so
	// the most probable world is the full chain.
	prev := "r"
	for i := 0; i < 40; i++ {
		cur := "c" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		pi.SetLCh(prev, "l", cur)
		w := prob.NewOPF()
		w.Put(sets.NewSet(), 0.01)
		w.Put(sets.NewSet(cur), 0.99)
		pi.SetOPF(prev, w)
		prev = cur
	}
	top, err := TopK(context.Background(), pi, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("worlds = %d", len(top))
	}
	if top[0].S.NumObjects() != 41 {
		t.Errorf("most probable world has %d objects, want 41", top[0].S.NumObjects())
	}
	want := math.Pow(0.99, 40)
	if !approx(top[0].P, want) {
		t.Errorf("P = %v, want %v", top[0].P, want)
	}
	// Second most probable: drop the FIRST link — the bare root at 0.01
	// beats dropping any later link (0.99^i · 0.01 < 0.01).
	if !approx(top[1].P, 0.01) || top[1].S.NumObjects() != 1 {
		t.Errorf("second world: P = %v, objects = %d", top[1].P, top[1].S.NumObjects())
	}
}

func TestTopKErrors(t *testing.T) {
	pi := fixtures.Figure2()
	if _, err := TopK(context.Background(), pi, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopK(context.Background(), pi, 5, 2); err == nil {
		t.Error("expansion cap not enforced")
	}
	cyc := core.NewProbInstance("r")
	cyc.SetLCh("r", "l", "a")
	cyc.SetLCh("a", "l", "b")
	cyc.SetLCh("b", "l", "a")
	if _, err := TopK(context.Background(), cyc, 1, 0); err == nil {
		t.Error("cyclic instance accepted")
	}
}

// TestSampleDistribution: the empirical distribution of forward samples
// converges to the exact possible-worlds distribution.
func TestSampleDistribution(t *testing.T) {
	pi := fixtures.Figure2VariedLeaves()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		s, err := Sample(pi, r)
		if err != nil {
			t.Fatal(err)
		}
		counts[s.CanonicalKey()]++
		// Every sample is a compatible world.
		if i < 50 {
			if err := pi.Compatible(s); err != nil {
				t.Fatalf("sample incompatible: %v", err)
			}
		}
	}
	// Compare frequencies against exact probabilities for the most likely
	// worlds (binomial stderr ≤ ~0.004 at n=20000; use 5σ).
	for i, w := range gi.Worlds() {
		if i == 5 {
			break
		}
		freq := float64(counts[w.S.CanonicalKey()]) / n
		tol := 5 * math.Sqrt(w.P*(1-w.P)/n)
		if math.Abs(freq-w.P) > tol {
			t.Errorf("world %d: freq %v vs exact %v (tol %v)", i, freq, w.P, tol)
		}
	}
}

// TestEstimateProbMatchesExact: the Monte-Carlo estimator brackets the
// exact probability within its reported error.
func TestEstimateProbMatchesExact(t *testing.T) {
	pi := fixtures.Figure2()
	gi, err := Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(s *model.Instance) bool { return s.HasObject("A1") && s.HasObject("I1") }
	exact := gi.ProbWhere(pred)
	r := rand.New(rand.NewSource(7))
	est, err := EstimateProb(context.Background(), pi, pred, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.P-exact) > 5*est.StdErr+1e-9 {
		t.Errorf("estimate %v vs exact %v", est, exact)
	}
	if est.Samples != 20000 || est.StdErr <= 0 {
		t.Errorf("estimate metadata: %+v", est)
	}
	if est.String() == "" {
		t.Error("empty String")
	}
	if _, err := EstimateProb(context.Background(), pi, pred, 0, r); err == nil {
		t.Error("n=0 accepted")
	}
}

// TestSampleErrors: cyclic instances cannot be sampled.
func TestSampleErrors(t *testing.T) {
	cyc := core.NewProbInstance("r")
	cyc.SetLCh("r", "l", "a")
	cyc.SetLCh("a", "l", "b")
	cyc.SetLCh("b", "l", "a")
	r := rand.New(rand.NewSource(1))
	if _, err := Sample(cyc, r); err == nil {
		t.Error("cyclic instance sampled")
	}
	missing := core.NewProbInstance("r")
	missing.SetLCh("r", "l", "a")
	if _, err := Sample(missing, r); err == nil {
		t.Error("missing OPF accepted")
	}
}
