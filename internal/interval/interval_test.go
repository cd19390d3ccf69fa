package interval

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/query"
	"pxml/internal/sets"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// pointOPF builds a point OPF from a map whose keys are "" (the empty set)
// or single member ids.
func pointOPF(m map[string]float64) *prob.OPF {
	w := prob.NewOPF()
	for k, p := range m {
		if k == "" {
			w.Put(sets.NewSet(), p)
		} else {
			w.Put(sets.NewSet(k), p)
		}
	}
	return w
}

func coreType() model.Type { return model.NewType("bit", "0", "1") }

func TestBoundBasics(t *testing.T) {
	if err := (Bound{0.2, 0.8}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Bound{{-0.1, 0.5}, {0.5, 1.2}, {0.7, 0.3}, {math.NaN(), 1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bound %v accepted", bad)
		}
	}
	b := Bound{0.2, 0.5}.Mul(Bound{0.5, 0.8})
	if !approx(b.Lo, 0.1) || !approx(b.Hi, 0.4) {
		t.Errorf("Mul = %v", b)
	}
	if !Point(0.3).Contains(0.3) || Point(0.3).Contains(0.5) {
		t.Error("Contains misbehaves")
	}
	if (Bound{0.25, 0.75}).String() != "[0.25,0.75]" {
		t.Errorf("String = %q", Bound{0.25, 0.75}.String())
	}
}

// intervalOPF builds a small interval OPF with slack.
func intervalOPF() *OPF {
	w := NewOPF()
	w.Put(sets.NewSet(), Bound{0.1, 0.3})
	w.Put(sets.NewSet("a"), Bound{0.2, 0.6})
	w.Put(sets.NewSet("a", "b"), Bound{0.1, 0.5})
	return w
}

func TestOPFConsistency(t *testing.T) {
	if err := intervalOPF().Consistent(); err != nil {
		t.Fatal(err)
	}
	// Lower bounds exceed one.
	bad := NewOPF()
	bad.Put(sets.NewSet("a"), Bound{0.7, 0.8})
	bad.Put(sets.NewSet("b"), Bound{0.6, 0.9})
	if err := bad.Consistent(); err == nil {
		t.Error("over-committed lower bounds accepted")
	}
	// Upper bounds cannot reach one.
	low := NewOPF()
	low.Put(sets.NewSet("a"), Bound{0.1, 0.3})
	if err := low.Consistent(); err == nil {
		t.Error("unreachable total accepted")
	}
}

func TestTighten(t *testing.T) {
	w := NewOPF()
	w.Put(sets.NewSet("a"), Bound{0.0, 1.0})
	w.Put(sets.NewSet("b"), Bound{0.7, 0.8})
	tt, err := w.Tighten()
	if err != nil {
		t.Fatal(err)
	}
	// ω(a) = 1 − ω(b) ∈ [0.2, 0.3].
	got := tt.Bound(sets.NewSet("a"))
	if !approx(got.Lo, 0.2) || !approx(got.Hi, 0.3) {
		t.Errorf("tightened = %v", got)
	}
	// Idempotent.
	tt2, err := tt.Tighten()
	if err != nil {
		t.Fatal(err)
	}
	g2 := tt2.Bound(sets.NewSet("a"))
	if !approx(g2.Lo, got.Lo) || !approx(g2.Hi, got.Hi) {
		t.Error("tighten not idempotent")
	}
}

func TestExtremizeLinear(t *testing.T) {
	w := intervalOPF()
	// q = 1 for sets containing "a".
	b, err := w.ProbContains("a")
	if err != nil {
		t.Fatal(err)
	}
	// Max: ∅ at its minimum 0.1, the rest on a-sets: 0.9.
	if !approx(b.Hi, 0.9) {
		t.Errorf("hi = %v, want 0.9", b.Hi)
	}
	// Min: a-sets at lower bounds 0.2+0.1 = 0.3; ∅ absorbs at most 0.3, so
	// the remaining 0.4 must go to a-sets anyway: min = 0.7.
	if !approx(b.Lo, 0.7) {
		t.Errorf("lo = %v, want 0.7", b.Lo)
	}
}

func TestSampleWithinBounds(t *testing.T) {
	w := intervalOPF()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		pt, err := w.Sample(r.Float64)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("sampled OPF invalid: %v", err)
		}
		tt, _ := w.Tighten()
		for _, e := range tt.Entries() {
			if !e.Bound.Contains(pt.Prob(e.Set)) {
				t.Fatalf("sample %v outside bound %v for %s", pt.Prob(e.Set), e.Bound, e.Set)
			}
		}
	}
}

// chainInstance builds a small interval instance over a two-level tree.
func chainInstance(t testing.TB) *Instance {
	t.Helper()
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "a", "x")
	w.SetLCh("x", "b", "u")
	in := New(w)
	ow := NewOPF()
	ow.Put(sets.NewSet(), Bound{0.2, 0.5})
	ow.Put(sets.NewSet("x"), Bound{0.5, 0.8})
	in.SetOPF("r", ow)
	xw := NewOPF()
	xw.Put(sets.NewSet(), Bound{0.4, 0.4})
	xw.Put(sets.NewSet("u"), Bound{0.6, 0.6})
	in.SetOPF("x", xw)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestChainBound(t *testing.T) {
	in := chainInstance(t)
	b, err := ChainBound(in, []string{"r", "x", "u"})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Lo, 0.5*0.6) || !approx(b.Hi, 0.8*0.6) {
		t.Errorf("chain bound = %v", b)
	}
	// Impossible chain.
	b, err = ChainBound(in, []string{"r", "u"})
	if err != nil || b.Hi != 0 {
		t.Errorf("impossible chain = %v err=%v", b, err)
	}
	if _, err := ChainBound(in, []string{"x"}); err == nil {
		t.Error("non-root chain accepted")
	}
}

func TestPointAndExistsBound(t *testing.T) {
	in := chainInstance(t)
	p := pathexpr.MustParse("r.a.b")
	b, err := PointBound(in, p, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Lo, 0.3) || !approx(b.Hi, 0.48) {
		t.Errorf("point bound = %v", b)
	}
	e, err := ExistsBound(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(e.Lo, b.Lo) || !approx(e.Hi, b.Hi) {
		t.Errorf("exists bound = %v, want %v (single match)", e, b)
	}
	// No match.
	z, err := ExistsBound(in, pathexpr.MustParse("r.zz"))
	if err != nil || z.Hi != 0 {
		t.Errorf("no-match bound = %v err=%v", z, err)
	}
}

// TestFromPointCollapses: lifting a point instance yields degenerate
// intervals whose query bounds equal the point query answers.
func TestFromPointCollapses(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pi := fixtures.RandomTree(r)
	in := FromPoint(pi)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	objs := pi.Objects()
	o := objs[r.Intn(len(objs))]
	// Build the root path of o.
	g := pi.WeakInstance.Graph()
	var labels []string
	cur := o
	for cur != pi.Root() {
		ps := g.Parents(cur)
		if len(ps) == 0 {
			break
		}
		l, _ := g.Label(ps[0], cur)
		labels = append([]string{l}, labels...)
		cur = ps[0]
	}
	p := pathexpr.Path{Root: pi.Root(), Labels: labels}
	want, err := query.PointQuery(pi, p, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PointBound(in, p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got.Lo, want) || !approx(got.Hi, want) {
		t.Errorf("degenerate bound = %v, want point %v", got, want)
	}
}

// TestQuickSampledInstancesWithinBounds: every consistent point instance
// sampled from an interval instance produces query answers inside the
// computed bounds — the soundness half of tightness.
func TestQuickSampledInstancesWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := fixtures.RandomTree(r)
		if base.NumObjects() > 14 {
			return true
		}
		// Widen each point OPF into an interval around it.
		in := New(base.Weak())
		for _, o := range base.SortedOPFObjects() {
			w := NewOPF()
			base.OPF(o).Each(func(c sets.Set, p float64) {
				lo := p * (0.5 + 0.5*r.Float64())
				hi := p + (1-p)*0.5*r.Float64()
				w.Put(c, Bound{Lo: lo, Hi: hi})
			})
			in.SetOPF(o, w)
		}
		for _, o := range base.SortedVPFObjects() {
			v := NewVPF()
			for _, e := range base.VPF(o).Entries() {
				v.Put(e.Value, Bound{Lo: e.Prob * 0.5, Hi: e.Prob + (1-e.Prob)*0.5})
			}
			in.SetVPF(o, v)
		}
		if in.Validate() != nil {
			return false
		}
		// A satisfiable path.
		objs := base.Objects()
		o := objs[r.Intn(len(objs))]
		g := base.WeakInstance.Graph()
		var labels []string
		cur := o
		for cur != base.Root() {
			ps := g.Parents(cur)
			if len(ps) == 0 {
				break
			}
			l, _ := g.Label(ps[0], cur)
			labels = append([]string{l}, labels...)
			cur = ps[0]
		}
		p := pathexpr.Path{Root: base.Root(), Labels: labels}
		pb, err := PointBound(in, p, o)
		if err != nil {
			return false
		}
		eb, err := ExistsBound(in, p)
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			pt, err := in.SamplePoint(r.Float64)
			if err != nil {
				return false
			}
			if pt.ValidateLite() != nil {
				return false
			}
			pq, err := query.PointQuery(pt, p, o)
			if err != nil {
				return false
			}
			if !pb.Contains(pq) {
				return false
			}
			eq, err := query.ExistsQuery(context.Background(), pt, p)
			if err != nil {
				return false
			}
			if !eb.Contains(eq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundsAreAchieved: the extremes of the chain bound are attained by
// concrete consistent point instances (the tightness half).
func TestBoundsAreAchieved(t *testing.T) {
	in := chainInstance(t)
	b, err := ChainBound(in, []string{"r", "x", "u"})
	if err != nil {
		t.Fatal(err)
	}
	// Construct the extreme point instances by hand.
	mk := func(px float64) *core.ProbInstance {
		pi := core.FromWeak(in.Weak())
		pi.SetOPF("r", pointOPF(map[string]float64{"": 1 - px, "x": px}))
		pi.SetOPF("x", pointOPF(map[string]float64{"": 0.4, "u": 0.6}))
		return pi
	}
	lo, err := query.ChainProb(mk(0.5), []string{"r", "x", "u"})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := query.ChainProb(mk(0.8), []string{"r", "x", "u"})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lo, b.Lo) || !approx(hi, b.Hi) {
		t.Errorf("achieved %v..%v, bound %v", lo, hi, b)
	}
}

func TestValueExistsBound(t *testing.T) {
	w := core.NewWeakInstance("r")
	w.SetLCh("r", "a", "x")
	if err := w.RegisterType(coreType()); err != nil {
		t.Fatal(err)
	}
	if err := w.SetLeafType("x", "bit"); err != nil {
		t.Fatal(err)
	}
	in := New(w)
	ow := NewOPF()
	ow.Put(sets.NewSet(), Bound{0, 0.5})
	ow.Put(sets.NewSet("x"), Bound{0.5, 1})
	in.SetOPF("r", ow)
	v := NewVPF()
	v.Put("0", Bound{0.2, 0.6})
	v.Put("1", Bound{0.4, 0.8})
	in.SetVPF("x", v)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := ValueExistsBound(in, pathexpr.MustParse("r.a"), "1")
	if err != nil {
		t.Fatal(err)
	}
	// P = P(x) · P(val=1) ∈ [0.5·0.4, 1·0.8].
	if !approx(b.Lo, 0.2) || !approx(b.Hi, 0.8) {
		t.Errorf("value bound = %v", b)
	}
	// Unknown value has zero bound.
	z, err := ValueExistsBound(in, pathexpr.MustParse("r.a"), "9")
	if err != nil || z.Hi != 0 {
		t.Errorf("unknown value bound = %v", z)
	}
}

func TestQueriesRejectDAG(t *testing.T) {
	in := FromPoint(fixtures.Figure2())
	if _, err := PointBound(in, pathexpr.MustParse("R.book"), "B1"); err == nil {
		t.Error("DAG accepted by interval point query")
	}
}

// TestQuickTightenSound: tightening never excludes a distribution that the
// original bounds admit — samples drawn from the tightened OPF satisfy the
// original bounds and vice versa (the tightened polytope is the same).
func TestQuickTightenSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := NewOPF()
		n := 2 + r.Intn(4)
		for i := 0; i < n; i++ {
			lo := r.Float64() * 0.4 / float64(n)
			hi := lo + r.Float64()*(1-lo)
			w.Put(sets.NewSet(string(rune('a'+i))), Bound{Lo: lo, Hi: hi})
		}
		if w.Consistent() != nil {
			return true // inconsistent draw: nothing to check
		}
		tt, err := w.Tighten()
		if err != nil {
			return false
		}
		// Tightened bounds are within the originals.
		for _, e := range tt.Entries() {
			orig := w.Bound(e.Set)
			if e.Bound.Lo < orig.Lo-1e-12 || e.Bound.Hi > orig.Hi+1e-12 {
				return false
			}
		}
		// Every sampled point from the original bounds respects the
		// tightened ones (they cut away only infeasible corners).
		for i := 0; i < 5; i++ {
			pt, err := w.Sample(r.Float64)
			if err != nil {
				return false
			}
			for _, e := range tt.Entries() {
				if !e.Bound.Contains(pt.Prob(e.Set)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExtremizeBoundsAchievable: the linear-extremization results are
// attained within the bound polytope — every sampled consistent point
// produces an objective value inside [min, max].
func TestQuickExtremizeBoundsAchievable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := NewOPF()
		n := 2 + r.Intn(4)
		members := make([]string, n)
		for i := 0; i < n; i++ {
			members[i] = string(rune('a' + i))
			lo := r.Float64() * 0.5 / float64(n)
			hi := lo + r.Float64()*(1-lo)
			w.Put(sets.NewSet(members[i]), Bound{Lo: lo, Hi: hi})
		}
		if w.Consistent() != nil {
			return true
		}
		target := members[r.Intn(n)]
		b, err := w.ProbContains(target)
		if err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			pt, err := w.Sample(r.Float64)
			if err != nil {
				return false
			}
			v := pt.ProbContains(target)
			if v < b.Lo-1e-9 || v > b.Hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}
