package bayes

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFactorBasics(t *testing.T) {
	f := NewFactor([]int{0, 1}, []int{2, 3})
	f.Set([]int{1, 2}, 0.5)
	if got := f.At([]int{1, 2}); got != 0.5 {
		t.Errorf("At = %v", got)
	}
	if f.Size() != 6 {
		t.Errorf("Size = %d", f.Size())
	}
	n := 0
	f.EachAssignment(func(a []int, v float64) { n++ })
	if n != 6 {
		t.Errorf("EachAssignment visited %d", n)
	}
	if _, err := f.Scalar(); err == nil {
		t.Error("non-scalar Scalar accepted")
	}
}

func TestFactorMultiplySumOut(t *testing.T) {
	// P(A)·P(B|A), then sum out A → P(B).
	pa := NewFactor([]int{0}, []int{2})
	pa.Set([]int{0}, 0.3)
	pa.Set([]int{1}, 0.7)
	pba := NewFactor([]int{1, 0}, []int{2, 2})
	pba.Set([]int{0, 0}, 0.9)
	pba.Set([]int{1, 0}, 0.1)
	pba.Set([]int{0, 1}, 0.2)
	pba.Set([]int{1, 1}, 0.8)
	joint := Multiply(pa, pba)
	pb := joint.SumOut(0)
	if got := pb.At([]int{0}); !approx(got, 0.3*0.9+0.7*0.2) {
		t.Errorf("P(B=0) = %v", got)
	}
	if got := pb.At([]int{1}); !approx(got, 0.3*0.1+0.7*0.8) {
		t.Errorf("P(B=1) = %v", got)
	}
	// Summing out an absent variable copies.
	cp := pa.SumOut(99)
	if cp.At([]int{1}) != 0.7 {
		t.Error("SumOut(absent) altered factor")
	}
}

func TestFactorReduce(t *testing.T) {
	f := NewFactor([]int{0, 1}, []int{2, 2})
	f.Set([]int{0, 0}, 1)
	f.Set([]int{1, 1}, 2)
	r := f.Reduce(0, 1)
	if got := r.At([]int{1}); got != 2 {
		t.Errorf("reduced = %v", got)
	}
	if got := r.At([]int{0}); got != 0 {
		t.Errorf("reduced = %v", got)
	}
	cp := f.Reduce(9, 0)
	if cp.At([]int{1, 1}) != 2 {
		t.Error("Reduce(absent) altered factor")
	}
}

func TestEliminateAllScalar(t *testing.T) {
	pa := NewFactor([]int{0}, []int{2})
	pa.Set([]int{0}, 0.25)
	pa.Set([]int{1}, 0.75)
	f, err := EliminateAll([]*Factor{pa}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s, 1) {
		t.Errorf("scalar = %v", s)
	}
}

// TestCompileFigure2Exists: scenario 4 of Section 2 on the paper's own DAG
// instance — the probability that author A1 exists. Cross-checked against
// the enumeration oracle.
func TestCompileFigure2Exists(t *testing.T) {
	pi := fixtures.Figure2()
	net, err := Compile(pi)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"B1", "B2", "B3", "A1", "A2", "A3", "I1", "I2", "T1", "T2"} {
		got, err := net.ProbExistsCtx(context.Background(), o)
		if err != nil {
			t.Fatalf("ProbExists(%s): %v", o, err)
		}
		want := gi.ProbWhere(func(s *model.Instance) bool { return s.HasObject(o) })
		if !approx(got, want) {
			t.Errorf("P(%s exists) = %v, oracle %v", o, got, want)
		}
	}
	// Root marginal has no absent state.
	m, err := net.Marginal("R")
	if err != nil {
		t.Fatal(err)
	}
	if m[Absent] != 0 {
		t.Errorf("root absent mass = %v", m[Absent])
	}
}

func TestProbValueFigure2(t *testing.T) {
	pi := fixtures.Figure2VariedLeaves()
	net, err := Compile(pi)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.ProbValue("T1", "VQDB")
	if err != nil {
		t.Fatal(err)
	}
	want := gi.ProbWhere(func(s *model.Instance) bool {
		v, ok := s.ValueOf("T1")
		return ok && v == "VQDB"
	})
	if !approx(got, want) {
		t.Errorf("P(T1=VQDB) = %v, oracle %v", got, want)
	}
}

// TestPathProbFigure2: point queries on the paper's DAG instance, where the
// Section 6 tree algorithms do not apply, cross-checked against the oracle.
func TestPathProbFigure2(t *testing.T) {
	pi := fixtures.Figure2()
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path string
		obj  string
	}{
		{"R.book.author", "A1"},
		{"R.book.author", "A2"},
		{"R.book.author", "A3"},
		{"R.book.author.institution", "I1"},
		{"R.book.title", "T1"},
		{"R.book.author", ""}, // existence query
		{"R.book.nothing", "A1"},
	}
	for _, c := range cases {
		p := pathexpr.MustParse(c.path)
		got, err := PathProb(pi, p, c.obj)
		if err != nil {
			t.Fatalf("PathProb(%s, %q): %v", c.path, c.obj, err)
		}
		want := gi.ProbWhere(func(s *model.Instance) bool {
			if c.obj == "" {
				return len(p.Targets(s.Graph())) > 0
			}
			return p.Matches(s.Graph(), c.obj)
		})
		if !approx(got, want) {
			t.Errorf("PathProb(%s, %q) = %v, oracle %v", c.path, c.obj, got, want)
		}
	}
}

func TestPathProbEdgeCases(t *testing.T) {
	pi := fixtures.Figure2()
	// Wrong root.
	if p, err := PathProb(pi, pathexpr.MustParse("X.book"), ""); err != nil || p != 0 {
		t.Errorf("wrong root: %v %v", p, err)
	}
	// Bare root.
	if p, err := PathProb(pi, pathexpr.MustParse("R"), ""); err != nil || p != 1 {
		t.Errorf("bare root: %v %v", p, err)
	}
	if p, err := PathProb(pi, pathexpr.MustParse("R"), "B1"); err != nil || p != 0 {
		t.Errorf("bare root other object: %v %v", p, err)
	}
}

func TestCompileRejectsCycle(t *testing.T) {
	pi := fixtures.Figure2()
	pi.SetLCh("I1", "loop", "R") // introduces a cycle through the root? root cannot be a child; use B1
	pi.SetLCh("I1", "loop")
	pi.SetLCh("I1", "l", "B1")
	if _, err := Compile(pi); err == nil {
		t.Error("cyclic instance compiled")
	}
}

// TestQuickBayesMatchesOracleDAG: existence marginals on random DAGs agree
// with enumeration — the quantitative core of the Section 6 claim that BN
// inference answers PXML queries.
func TestQuickBayesMatchesOracleDAG(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomDAG(r)
		if pi.NumObjects() > 11 {
			return true
		}
		net, err := Compile(pi)
		if err != nil {
			return false
		}
		gi, err := enumerate.Enumerate(pi, 0)
		if err != nil {
			return false
		}
		objs := pi.Objects()
		o := objs[r.Intn(len(objs))]
		got, err := net.ProbExistsCtx(context.Background(), o)
		if err != nil {
			return false
		}
		want := gi.ProbWhere(func(s *model.Instance) bool { return s.HasObject(o) })
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPathProbMatchesOracleDAG: DAG point queries via the augmented
// network agree with enumeration.
func TestQuickPathProbMatchesOracleDAG(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pi := fixtures.RandomDAG(r)
		if pi.NumObjects() > 10 {
			return true
		}
		labels := []string{"a", "b"}
		p := pathexpr.Path{Root: pi.Root()}
		for i := 0; i < 1+r.Intn(2); i++ {
			p.Labels = append(p.Labels, labels[r.Intn(len(labels))])
		}
		objs := pi.Objects()
		o := objs[r.Intn(len(objs))]
		got, err := PathProb(pi, p, o)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

// TestConditionalQueriesFigure2: conditional existence probabilities on
// the paper's DAG instance match the enumeration oracle — the BN analogue
// of the selection operator's Definition 5.6 renormalization.
func TestConditionalQueriesFigure2(t *testing.T) {
	pi := fixtures.Figure2()
	net, err := Compile(pi)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		o      string
		exists []string
		absent []string
	}{
		{"A1", []string{"B1"}, nil},
		{"A1", []string{"B2"}, nil},
		{"A1", nil, []string{"B1"}},
		{"I1", []string{"A1", "A2"}, nil},
		{"T1", []string{"B1"}, []string{"A2"}},
	}
	for _, c := range cases {
		ev := Evidence{Exists: c.exists, Absent: c.absent}
		got, err := net.ProbExistsGiven(c.o, ev)
		if err != nil {
			t.Fatalf("ProbExistsGiven(%s | %v): %v", c.o, ev, err)
		}
		holds := func(s *model.Instance) bool {
			for _, e := range c.exists {
				if !s.HasObject(e) {
					return false
				}
			}
			for _, a := range c.absent {
				if s.HasObject(a) {
					return false
				}
			}
			return true
		}
		pEv := gi.ProbWhere(holds)
		pBoth := gi.ProbWhere(func(s *model.Instance) bool { return holds(s) && s.HasObject(c.o) })
		want := pBoth / pEv
		if !approx(got, want) {
			t.Errorf("P(%s | %v) = %v, oracle %v", c.o, ev, got, want)
		}
		// ProbEvidence agrees with the oracle too.
		gotEv, err := net.ProbEvidence(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(gotEv, pEv) {
			t.Errorf("P(%v) = %v, oracle %v", ev, gotEv, pEv)
		}
	}
}

func TestConditionalQueryErrors(t *testing.T) {
	pi := fixtures.Figure2()
	net, err := Compile(pi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ProbExistsGiven("A1", Evidence{Exists: []string{"nope"}}); err == nil {
		t.Error("unknown evidence object accepted")
	}
	if _, err := net.MarginalGiven("nope", Evidence{}); err == nil {
		t.Error("unknown query object accepted")
	}
	// Impossible evidence: the root's card forces ≥2 books, so all three
	// absent is contradictory... B1,B2 absent forces {B2,B3}∌B1... actually
	// {B3} alone is impossible (card min 2): B1 and B2 both absent has
	// probability zero.
	if _, err := net.ProbExistsGiven("A3", Evidence{Absent: []string{"B1", "B2"}}); err == nil {
		t.Error("zero-probability evidence accepted")
	}
}
