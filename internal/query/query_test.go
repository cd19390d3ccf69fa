package query

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// chainTree builds a small tree with known chain probabilities.
func chainTree(t testing.TB) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance("r")
	if err := pi.RegisterType(model.NewType("bit", "0", "1")); err != nil {
		t.Fatal(err)
	}
	pi.SetLCh("r", "a", "x", "y")
	w := prob.NewOPF()
	w.Put(sets.NewSet("x"), 0.3)
	w.Put(sets.NewSet("y"), 0.2)
	w.Put(sets.NewSet("x", "y"), 0.4)
	w.Put(sets.NewSet(), 0.1)
	pi.SetOPF("r", w)

	pi.SetLCh("x", "b", "u")
	wx := prob.NewOPF()
	wx.Put(sets.NewSet("u"), 0.6)
	wx.Put(sets.NewSet(), 0.4)
	pi.SetOPF("x", wx)

	pi.SetLCh("y", "b", "v")
	wy := prob.NewOPF()
	wy.Put(sets.NewSet("v"), 0.5)
	wy.Put(sets.NewSet(), 0.5)
	pi.SetOPF("y", wy)

	for _, leaf := range []string{"u", "v"} {
		if err := pi.SetLeafType(leaf, "bit"); err != nil {
			t.Fatal(err)
		}
		vp := prob.NewVPF()
		vp.Put("0", 0.25)
		vp.Put("1", 0.75)
		pi.SetVPF(leaf, vp)
	}
	if err := pi.Validate(); err != nil {
		t.Fatal(err)
	}
	return pi
}

func TestChainProb(t *testing.T) {
	pi := chainTree(t)
	// P(x) = 0.7, P(u | x) = 0.6.
	p, err := ChainProb(pi, []string{"r", "x", "u"})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 0.7*0.6) {
		t.Errorf("chain r.x.u = %v, want 0.42", p)
	}
	// Chain through a non-child is impossible.
	if p, _ := ChainProb(pi, []string{"r", "u"}); p != 0 {
		t.Errorf("impossible chain prob = %v", p)
	}
	// Chain beyond a leaf is impossible.
	if p, _ := ChainProb(pi, []string{"r", "x", "u", "z"}); p != 0 {
		t.Errorf("chain past leaf = %v", p)
	}
	// Root-only chain is certain.
	if p, _ := ChainProb(pi, []string{"r"}); p != 1 {
		t.Errorf("root chain = %v", p)
	}
	// Errors.
	if _, err := ChainProb(pi, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := ChainProb(pi, []string{"x"}); err == nil {
		t.Error("non-root chain accepted")
	}
}

// TestChainProbDAG: the chain formula stays exact on DAG instances
// (Figure 2): P(R.B2.A1.I1) = P(B2|R)·P(A1|B2)·P(I1|A1).
func TestChainProbDAG(t *testing.T) {
	pi := fixtures.Figure2()
	p, err := ChainProb(pi, []string{"R", "B2", "A1", "I1"})
	if err != nil {
		t.Fatal(err)
	}
	// P(B2 ∈ c(R)) = 0.2+0.2+0.4, P(A1 ∈ c(B2)) = 0.4+0.4, P(I1|A1) = 0.8.
	want := 0.8 * 0.8 * 0.8
	if !approx(p, want) {
		t.Errorf("chain = %v, want %v", p, want)
	}
	// Oracle check.
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := gi.ProbWhere(func(s *model.Instance) bool {
		return slices.Contains(s.Graph().Children("R"), "B2") && slices.Contains(s.Graph().Children("B2"), "A1") && slices.Contains(s.Graph().Children("A1"), "I1")
	})
	if !approx(p, oracle) {
		t.Errorf("chain = %v, oracle = %v", p, oracle)
	}
}

func TestPointQuery(t *testing.T) {
	pi := chainTree(t)
	p, err := PointQuery(pi, pathexpr.MustParse("r.a.b"), "u")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 0.42) {
		t.Errorf("point query = %v, want 0.42", p)
	}
	// Point query for an object that does not satisfy the path.
	p, err = PointQuery(pi, pathexpr.MustParse("r.a"), "u")
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("mismatched point query = %v", p)
	}
	// Wrong root.
	if p, _ := PointQuery(pi, pathexpr.MustParse("z.a"), "x"); p != 0 {
		t.Errorf("wrong-root point query = %v", p)
	}
	// Bare-root path.
	if p, _ := PointQuery(pi, pathexpr.MustParse("r"), "r"); p != 1 {
		t.Errorf("root point query = %v", p)
	}
	if p, _ := PointQuery(pi, pathexpr.MustParse("r"), "x"); p != 0 {
		t.Errorf("root path, non-root object = %v", p)
	}
}

// TestPointQueryEqualsChainProb: in a tree the point query equals the chain
// probability of the unique root path.
func TestPointQueryEqualsChainProb(t *testing.T) {
	pi := chainTree(t)
	pq, err := PointQuery(pi, pathexpr.MustParse("r.a.b"), "v")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ChainProb(pi, []string{"r", "y", "v"})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pq, cp) {
		t.Errorf("point %v != chain %v", pq, cp)
	}
}

func TestExistsQuery(t *testing.T) {
	pi := chainTree(t)
	// P(some object satisfies r.a.b) = 1 − P(no leaf reachable):
	// fail = Σ_c ω(r)(c) Π (1−ε); ε_x = 0.6, ε_y = 0.5.
	want := 1 - (0.1 + 0.3*0.4 + 0.2*0.5 + 0.4*0.4*0.5)
	p, err := ExistsQuery(context.Background(), pi, pathexpr.MustParse("r.a.b"))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, want) {
		t.Errorf("exists = %v, want %v", p, want)
	}
	// Oracle check.
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := pathexpr.MustParse("r.a.b")
	oracle := gi.ProbWhere(func(s *model.Instance) bool {
		return len(path.Targets(s.Graph())) > 0
	})
	if !approx(p, oracle) {
		t.Errorf("exists = %v, oracle = %v", p, oracle)
	}
	// Unsatisfiable path.
	if p, _ := ExistsQuery(context.Background(), pi, pathexpr.MustParse("r.zz")); p != 0 {
		t.Errorf("unsatisfiable exists = %v", p)
	}
}

func TestValueQueries(t *testing.T) {
	pi := chainTree(t)
	path := pathexpr.MustParse("r.a.b")
	// P(∃ leaf on r.a.b with value "0").
	p, err := ValueExistsQuery(context.Background(), pi, path, "0")
	if err != nil {
		t.Fatal(err)
	}
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := gi.ProbWhere(func(s *model.Instance) bool {
		for _, o := range path.Targets(s.Graph()) {
			if v, ok := s.ValueOf(o); ok && v == "0" {
				return true
			}
		}
		return false
	})
	if !approx(p, oracle) {
		t.Errorf("value exists = %v, oracle = %v", p, oracle)
	}

	// Specific leaf.
	pv, err := ValuePointQuery(context.Background(), pi, path, "u", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pv, 0.42*0.75) {
		t.Errorf("value point = %v, want %v", pv, 0.42*0.75)
	}
	// Value absent from the domain.
	pv, err = ValueExistsQuery(context.Background(), pi, path, "nope")
	if err != nil {
		t.Fatal(err)
	}
	if pv != 0 {
		t.Errorf("impossible value exists = %v", pv)
	}
}

func TestQueriesRejectDAG(t *testing.T) {
	pi := fixtures.Figure2()
	if _, err := PointQuery(pi, pathexpr.MustParse("R.book"), "B1"); err != ErrNotTree {
		t.Fatalf("PointQuery err = %v", err)
	}
	if _, err := ExistsQuery(context.Background(), pi, pathexpr.MustParse("R.book")); err != ErrNotTree {
		t.Fatalf("ExistsQuery err = %v", err)
	}
	if _, err := ValueExistsQuery(context.Background(), pi, pathexpr.MustParse("R.book.title"), "Lore"); err != ErrNotTree {
		t.Fatalf("ValueExistsQuery err = %v", err)
	}
	if _, err := ValuePointQuery(context.Background(), pi, pathexpr.MustParse("R.book.title"), "T2", "Lore"); err != ErrNotTree {
		t.Fatalf("ValuePointQuery err = %v", err)
	}
}

// TestQuickPointQueryMatchesOracle: point queries on random trees agree
// with enumeration.
func TestQuickPointQueryMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true
		}
		objs := pi.Objects()
		o := objs[r.Intn(len(objs))]
		p := rootPath(pi, o)
		got, err := PointQuery(pi, p, o)
		if err != nil {
			return false
		}
		gi, err := enumerate.Enumerate(pi, 0)
		if err != nil {
			return false
		}
		want := gi.ProbWhere(func(s *model.Instance) bool { return p.Matches(s.Graph(), o) })
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExistsQueryMatchesOracle: existence queries on random trees and
// random paths agree with enumeration.
func TestQuickExistsQueryMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true
		}
		labels := []string{"a", "b", "zz"}
		p := pathexpr.Path{Root: pi.Root()}
		for i := 0; i < 1+r.Intn(3); i++ {
			p.Labels = append(p.Labels, labels[r.Intn(len(labels))])
		}
		got, err := ExistsQuery(context.Background(), pi, p)
		if err != nil {
			return false
		}
		gi, err := enumerate.Enumerate(pi, 0)
		if err != nil {
			return false
		}
		want := gi.ProbWhere(func(s *model.Instance) bool { return len(p.Targets(s.Graph())) > 0 })
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValueExistsMatchesOracle: value-existence queries agree with
// enumeration.
func TestQuickValueExistsMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomInstance(r, fixtures.RandomConfig{
			MaxDepth: 1 + r.Intn(2), MaxChildren: 1 + r.Intn(3), LeafDomain: 2,
		})
		if pi.NumObjects() > 10 {
			return true
		}
		labels := []string{"a", "b"}
		p := pathexpr.Path{Root: pi.Root()}
		for i := 0; i < 1+r.Intn(2); i++ {
			p.Labels = append(p.Labels, labels[r.Intn(len(labels))])
		}
		got, err := ValueExistsQuery(context.Background(), pi, p, "v0")
		if err != nil {
			return false
		}
		gi, err := enumerate.Enumerate(pi, 0)
		if err != nil {
			return false
		}
		want := gi.ProbWhere(func(s *model.Instance) bool {
			for _, o := range p.Targets(s.Graph()) {
				if v, ok := s.ValueOf(o); ok && v == "v0" {
					return true
				}
			}
			return false
		})
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// rootPath returns the label path from the root to o in a tree.
func rootPath(pi *core.ProbInstance, o model.ObjectID) pathexpr.Path {
	g := pi.WeakInstance.Graph()
	var labels []model.Label
	cur := o
	for cur != pi.Root() {
		ps := g.Parents(cur)
		if len(ps) == 0 {
			break
		}
		l, _ := g.Label(ps[0], cur)
		labels = append([]model.Label{l}, labels...)
		cur = ps[0]
	}
	return pathexpr.Path{Root: pi.Root(), Labels: labels}
}

// TestCountDistributionChainTree: exact match-count distribution on the
// small chain tree, cross-checked against enumeration.
func TestCountDistributionChainTree(t *testing.T) {
	pi := chainTree(t)
	p := pathexpr.MustParse("r.a.b")
	d, err := CountDistribution(context.Background(), pi, p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, pr := range d {
		total += pr
	}
	if !approx(total, 1) {
		t.Errorf("count distribution mass = %v", total)
	}
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 3; k++ {
		want := gi.ProbWhere(func(s *model.Instance) bool {
			return len(p.Targets(s.Graph())) == k
		})
		if !approx(d[k], want) {
			t.Errorf("P(count=%d) = %v, oracle %v", k, d[k], want)
		}
	}
	// Expectation agrees with the sum of point-query marginals.
	e, err := ExpectedCount(context.Background(), pi, p)
	if err != nil {
		t.Fatal(err)
	}
	pu, _ := PointQuery(pi, p, "u")
	pv, _ := PointQuery(pi, p, "v")
	if !approx(e, pu+pv) {
		t.Errorf("E[count] = %v, want %v", e, pu+pv)
	}
}

func TestCountDistributionEdgeCases(t *testing.T) {
	pi := chainTree(t)
	// No match.
	d, err := CountDistribution(context.Background(), pi, pathexpr.MustParse("r.zz"))
	if err != nil || !approx(d[0], 1) {
		t.Errorf("no-match distribution = %v err=%v", d, err)
	}
	// Bare root.
	d, err = CountDistribution(context.Background(), pi, pathexpr.MustParse("r"))
	if err != nil || !approx(d[1], 1) {
		t.Errorf("root distribution = %v err=%v", d, err)
	}
	// Wrong root.
	d, err = CountDistribution(context.Background(), pi, pathexpr.MustParse("z.a"))
	if err != nil || !approx(d[0], 1) {
		t.Errorf("wrong-root distribution = %v err=%v", d, err)
	}
	// DAG rejected.
	if _, err := CountDistribution(context.Background(), fixtures.Figure2(), pathexpr.MustParse("R.book")); err != ErrNotTree {
		t.Errorf("DAG err = %v", err)
	}
}

// TestQuickCountDistributionMatchesOracle: the count distribution agrees
// with enumeration on random trees and random paths.
func TestQuickCountDistributionMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomTree(r)
		if pi.NumObjects() > 12 {
			return true
		}
		labels := []string{"a", "b"}
		p := pathexpr.Path{Root: pi.Root()}
		for i := 0; i < 1+r.Intn(3); i++ {
			p.Labels = append(p.Labels, labels[r.Intn(len(labels))])
		}
		d, err := CountDistribution(context.Background(), pi, p)
		if err != nil {
			return false
		}
		gi, err := enumerate.Enumerate(pi, 0)
		if err != nil {
			return false
		}
		// Compare every count value that appears on either side.
		maxK := 0
		for k := range d {
			if k > maxK {
				maxK = k
			}
		}
		for k := 0; k <= maxK+1; k++ {
			want := gi.ProbWhere(func(s *model.Instance) bool {
				return len(p.Targets(s.Graph())) == k
			})
			if math.Abs(d[k]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}
