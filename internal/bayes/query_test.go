package bayes

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/query"
	"pxml/internal/sets"
)

// relClose is the oracle tolerance of e2ebench: 1e-9 relative.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// governed returns a context carrying an unlimited governor, to read the
// steps a query charges.
func governed() (context.Context, *govern.Governor) {
	g := govern.New(context.Background(), govern.Budget{})
	return govern.With(context.Background(), g), g
}

// TestPrunedAnswersMatchOracle: on random DAGs every query kind that
// eliminates only the relevant CPTs agrees with possible-world
// enumeration, and with eliminating the whole network.
func TestPrunedAnswersMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20260927))
	checked := 0
	for round := 0; round < 400 && checked < 60; round++ {
		pi := fixtures.RandomDAG(r)
		if pi.NumObjects() > 10 {
			continue
		}
		checked++
		net, err := Compile(pi)
		if err != nil {
			t.Fatal(err)
		}
		gi, err := enumerate.Enumerate(pi, 0)
		if err != nil {
			t.Fatal(err)
		}
		objs := pi.Objects()
		pick := func() model.ObjectID { return objs[r.Intn(len(objs))] }

		o := pick()
		m, err := net.Marginal(o)
		if err != nil {
			t.Fatal(err)
		}
		mass := 0.0
		for _, v := range m {
			mass += v
		}
		exists := gi.ProbWhere(func(s *model.Instance) bool { return s.HasObject(o) })
		if !relClose(mass, 1) || !relClose(1-m[Absent], exists) {
			t.Errorf("round %d: Marginal(%s) has mass %v and P(exists) %v, oracle %v", round, o, mass, 1-m[Absent], exists)
		}
		id, _ := net.VarOf(o)
		whole, err := EliminateAll(net.factors, map[int]bool{id: true})
		if err != nil {
			t.Fatal(err)
		}
		for st, v := range whole.vals {
			if name := net.vars[id].States[st]; !relClose(m[name], v) {
				t.Errorf("round %d: pruned P(%s=%s) = %v, whole network %v", round, o, name, m[name], v)
			}
		}

		p := pathexpr.Path{Root: pi.Root()}
		for i := 1 + r.Intn(3); i > 0; i-- {
			p.Labels = append(p.Labels, []string{"a", "b", pathexpr.Wildcard}[r.Intn(3)])
		}
		for _, target := range []model.ObjectID{pick(), ""} {
			got, err := PathProbWith(net, pi, p, target)
			if err != nil {
				t.Fatal(err)
			}
			want := gi.ProbWhere(func(s *model.Instance) bool {
				if target == "" {
					return len(p.Targets(s.Graph())) > 0
				}
				return p.Matches(s.Graph(), target)
			})
			if !relClose(got, want) {
				t.Errorf("round %d: PathProb(%s, %q) = %v, oracle %v", round, p, target, got, want)
			}
		}

		ev := Evidence{Exists: []model.ObjectID{pick()}, Absent: []model.ObjectID{pick()}}
		holds := func(s *model.Instance) bool { return s.HasObject(ev.Exists[0]) && !s.HasObject(ev.Absent[0]) }
		pEv := gi.ProbWhere(holds)
		gotEv, err := net.ProbEvidence(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(gotEv, pEv) {
			t.Errorf("round %d: ProbEvidence(%v) = %v, oracle %v", round, ev, gotEv, pEv)
		}
		given, err := net.MarginalGiven(o, ev)
		if pEv < 1e-9 {
			if err == nil {
				t.Errorf("round %d: MarginalGiven accepted evidence %v of probability %v", round, ev, pEv)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want := gi.ProbWhere(func(s *model.Instance) bool { return holds(s) && s.HasObject(o) }) / pEv
		if !relClose(1-given[Absent], want) {
			t.Errorf("round %d: P(%s | %v) = %v, oracle %v", round, o, ev, 1-given[Absent], want)
		}
	}
	if checked < 40 {
		t.Fatalf("only %d random DAGs were small enough to enumerate", checked)
	}
}

// TestProbExistsFromParents: existence computed as the OR over the
// parents' choices agrees with Domain(W) enumeration on random DAGs and on
// small width bombs, for every object. The root is certain, an object
// whose one parent never chooses it with positive probability only occurs
// through its other parent, and an unknown object is an error.
func TestProbExistsFromParents(t *testing.T) {
	check := func(what string, pi *core.ProbInstance) {
		t.Helper()
		net, err := Compile(pi)
		if err != nil {
			t.Fatal(err)
		}
		gi, err := enumerate.Enumerate(pi, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range pi.Objects() {
			if _, ok := net.VarOf(o); !ok {
				continue // unreachable from the root
			}
			got, err := net.ProbExistsCtx(context.Background(), o)
			if err != nil {
				t.Fatalf("%s: ProbExists(%s): %v", what, o, err)
			}
			want := gi.ProbWhere(func(s *model.Instance) bool { return s.HasObject(o) })
			if !relClose(got, want) {
				t.Errorf("%s: ProbExists(%s) = %v, oracle %v", what, o, got, want)
			}
		}
		if _, err := net.ProbExistsCtx(context.Background(), "nosuch"); err == nil {
			t.Errorf("%s: ProbExists of an unknown object answered", what)
		}
	}
	r := rand.New(rand.NewSource(20030305))
	checked := 0
	for round := 0; round < 400 && checked < 40; round++ {
		if pi := fixtures.RandomDAG(r); pi.NumObjects() <= 10 {
			check("random DAG "+strconv.Itoa(round), pi)
			checked++
		}
	}
	for width := 1; width <= 4; width++ {
		for parents := 1; parents <= 3; parents++ {
			pi, err := gen.WidthBomb(gen.BombConfig{Width: width, Parents: parents, Seed: int64(10*width + parents)})
			if err != nil {
				t.Fatal(err)
			}
			check("width bomb "+strconv.Itoa(width)+"×"+strconv.Itoa(parents), pi)
		}
	}

	// R keeps X or Y or both; every set of X's holding S has probability
	// 0, so S occurs exactly when Y does: P = 0.5 + 0.2.
	pi := core.NewProbInstance("R")
	pi.SetLCh("R", "a", "X", "Y")
	ro := prob.NewOPF()
	ro.Put(sets.NewSet("X"), 0.3)
	ro.Put(sets.NewSet("X", "Y"), 0.5)
	ro.Put(sets.NewSet("Y"), 0.2)
	pi.SetOPF("R", ro)
	pi.SetLCh("X", "b", "S")
	xo := prob.NewOPF()
	xo.Put(sets.NewSet("S"), 0)
	xo.Put(sets.NewSet(), 1)
	pi.SetOPF("X", xo)
	pi.SetLCh("Y", "b", "S")
	yo := prob.NewOPF()
	yo.Put(sets.NewSet("S"), 1)
	pi.SetOPF("Y", yo)
	check("zero-probability choice", pi)
	net, err := Compile(pi)
	if err != nil {
		t.Fatal(err)
	}
	for o, want := range map[model.ObjectID]float64{"R": 1, "S": 0.7} {
		if got, err := net.ProbExistsCtx(context.Background(), o); err != nil || !relClose(got, want) {
			t.Errorf("ProbExists(%s) = %v, %v; want %v", o, got, err, want)
		}
	}
}

// wideMatchDAG is root → two arms sharing the same `leaves` leaves, each
// arm choosing among a few large child sets: a DAG whose worlds stay
// enumerable while the path root.arm.leaf matches every leaf.
func wideMatchDAG(t *testing.T, leaves int) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance("root")
	ls := make([]model.ObjectID, leaves)
	for i := range ls {
		ls[i] = "leaf" + strconv.Itoa(100+i)
	}
	arms := []model.ObjectID{"arm0", "arm1"}
	pi.SetLCh("root", "arm", arms...)
	pi.SetCard("root", "arm", 0, 2)
	rootOPF := prob.NewOPF()
	rootOPF.Put(sets.NewSet(arms...), 0.5)
	rootOPF.Put(sets.NewSet("arm0"), 0.3)
	rootOPF.Put(sets.NewSet("arm1"), 0.2)
	pi.SetOPF("root", rootOPF)
	half := leaves / 2
	choices := [][]struct {
		set  []model.ObjectID
		prob float64
	}{
		{{ls, 0.5}, {ls[:half], 0.3}, {nil, 0.2}},
		{{append([]model.ObjectID{ls[0]}, ls[half:]...), 0.6}, {nil, 0.4}},
	}
	for i, a := range arms {
		pi.SetLCh(a, "leaf", ls...)
		pi.SetCard(a, "leaf", 0, leaves)
		w := prob.NewOPF()
		for _, c := range choices[i] {
			w.Put(sets.NewSet(c.set...), c.prob)
		}
		pi.SetOPF(a, w)
	}
	// PC(arm) has 2^leaves members; the lite check skips enumerating it.
	if err := pi.ValidateLite(); err != nil {
		t.Fatal(err)
	}
	return pi
}

// TestExistenceQueryManyMatches: an existence query whose path matches 40
// objects of a DAG. One flat OR over the matches would be a 2^41-cell
// factor and used to fail as intractable from 22 matches on; the chain of
// binary ORs answers it.
func TestExistenceQueryManyMatches(t *testing.T) {
	pi := wideMatchDAG(t, 40)
	if pi.IsTree() {
		t.Fatal("fixture is not a DAG")
	}
	p := pathexpr.MustParse("root.arm.leaf")
	if n := len(p.Targets(pi.WeakInstance.Graph())); n < 32 {
		t.Fatalf("path matches %d objects, want ≥ 32", n)
	}
	gi, err := enumerate.Enumerate(pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []model.ObjectID{"", "leaf100", "leaf139"} {
		got, err := PathProb(pi, p, target)
		if err != nil {
			t.Fatalf("PathProb(%s, %q): %v", p, target, err)
		}
		want := gi.ProbWhere(func(s *model.Instance) bool {
			if target == "" {
				return len(p.Targets(s.Graph())) > 0
			}
			return p.Matches(s.Graph(), target)
		})
		if !relClose(got, want) {
			t.Errorf("PathProb(%s, %q) = %v, oracle %v", p, target, got, want)
		}
	}
}

// TestSharedNetworkIsDeterministic: eight goroutines asking one shared
// network the same questions a hundred times each get bit-identical
// answers (and, under -race, touch no shared mutable state).
func TestSharedNetworkIsDeterministic(t *testing.T) {
	pi, err := gen.WidthBomb(gen.BombConfig{Width: 5, Parents: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := Compile(pi)
	if err != nil {
		t.Fatal(err)
	}
	p := pathexpr.MustParse("bomb.arm.leaf")
	ask := func() ([4]float64, error) {
		var out [4]float64
		var err error
		if out[0], err = PathProbWith(net, pi, p, "leaf3"); err != nil {
			return out, err
		}
		if out[1], err = PathProbWith(net, pi, p, ""); err != nil {
			return out, err
		}
		if out[2], err = net.ProbExistsCtx(context.Background(), "leaf1"); err != nil {
			return out, err
		}
		out[3], err = net.ProbExistsGiven("leaf0", Evidence{Exists: []model.ObjectID{"leaf2"}, Absent: []model.ObjectID{"leaf4"}})
		return out, err
	}
	want, err := ask()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got, err := ask()
				if err != nil {
					t.Error(err)
					return
				}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Errorf("answer %d: %v, first run %v", k, got[k], want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// pointHotTree is the shape of e2ebench's point_hot instances: depth 6,
// branching 4, 5 461 objects.
func pointHotTree(tb testing.TB, depth int) (*gen.Instance, pathexpr.Path, model.ObjectID) {
	tb.Helper()
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	p, o, ok := in.RandomSelection(rand.New(rand.NewSource(3)))
	if !ok {
		tb.Fatal("no satisfiable selection")
	}
	return in, p, o
}

// TestLargeTreePointQuery: the BN lane answers a point query on a
// 5 461-object tree like the ε lane does, touching only the target's
// chain. Before relevance pruning this one call took 94 s; the wall bound
// is generous so only that kind of regression trips it.
func TestLargeTreePointQuery(t *testing.T) {
	in, p, o := pointHotTree(t, 6)
	if n := in.PI.NumObjects(); n != 5461 {
		t.Fatalf("tree has %d objects, want 5461", n)
	}
	net, err := Compile(in.PI)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.PointQuery(in.PI, p, o)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := PathProbWith(net, in.PI, p, o)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("BN point query took %v, want well under 1s", d)
	}
	if want <= 0 || !relClose(got, want) {
		t.Errorf("PathProbWith(%s, %s) = %v, ε lane %v", p, o, got, want)
	}
	// The work does not depend on the instance: the same number of
	// governor steps on a 341-object tree of the same generator.
	steps := func(depth int) int64 {
		in, p, o := pointHotTree(t, depth)
		net, err := Compile(in.PI)
		if err != nil {
			t.Fatal(err)
		}
		ctx, g := governed()
		if _, err := PathProbWithCtx(ctx, net, in.PI, p, o); err != nil {
			t.Fatal(err)
		}
		return g.Steps() / int64(depth)
	}
	if small, large := steps(4), steps(6); large > 2*small {
		t.Errorf("steps per path level grew with the instance: %d on 341 objects, %d on 5461", small, large)
	}
}

// TestBudgetStillRefusesDuringElimination: the governor is charged for
// the factors an existence query builds, and a budget below them stops the
// query with a typed error.
func TestBudgetStillRefusesDuringElimination(t *testing.T) {
	pi, err := gen.WidthBomb(gen.BombConfig{Width: 5, Parents: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := Compile(pi)
	if err != nil {
		t.Fatal(err)
	}
	ctx, g := governed()
	if _, err := net.ProbExistsCtx(ctx, "leaf0"); err != nil {
		t.Fatal(err)
	}
	// One (T, X_arm) term table per parent: 2 × 33 cells each.
	if g.Steps() < 2*2*33 {
		t.Fatalf("charged %d steps, less than the parents' term tables", g.Steps())
	}
	tight := govern.New(ctx, govern.Budget{MaxSteps: 100})
	if _, err := net.ProbExistsCtx(govern.With(ctx, tight), "leaf0"); !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
