package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pxml/internal/algebra"
	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/query"
)

// oracle answers queries the way the paper defines them: enumerate
// Domain(W) with Theorem 1's world probabilities and sum the worlds where
// the query holds. It shares no code with either of the engine's lanes.
type oracle struct {
	gi *enumerate.GlobalInterpretation
}

// newOracle enumerates pi, or reports false when it has more than limit
// worlds.
func newOracle(t testing.TB, pi *core.ProbInstance, limit int) (oracle, bool) {
	t.Helper()
	gi, err := enumerate.Enumerate(pi, limit)
	if err != nil {
		return oracle{}, false
	}
	if math.Abs(gi.TotalMass()-1) > 1e-9 {
		t.Fatalf("world probabilities sum to %v", gi.TotalMass())
	}
	return oracle{gi}, true
}

func (o oracle) point(p pathexpr.Path, obj model.ObjectID) float64 {
	return o.gi.ProbWhere(func(s *model.Instance) bool { return p.Matches(s.Graph(), obj) })
}

func (o oracle) exists(p pathexpr.Path) float64 {
	return o.gi.ProbWhere(func(s *model.Instance) bool { return len(p.Targets(s.Graph())) > 0 })
}

func (o oracle) object(obj model.ObjectID) float64 {
	return o.gi.ProbWhere(func(s *model.Instance) bool { return s.HasObject(obj) })
}

func (o oracle) valueExists(p pathexpr.Path, v model.Value) float64 {
	return o.gi.ProbWhere(algebra.ValueCondition{Path: p, Value: v}.Satisfies)
}

func (o oracle) valuePoint(p pathexpr.Path, obj model.ObjectID, v model.Value) float64 {
	return o.gi.ProbWhere(func(s *model.Instance) bool {
		got, ok := s.ValueOf(obj)
		return ok && got == v && p.Matches(s.Graph(), obj)
	})
}

func (o oracle) expectedCount(p pathexpr.Path) float64 {
	e := 0.0
	for _, w := range o.gi.Worlds() {
		e += w.P * float64(len(p.Targets(w.S.Graph())))
	}
	return e
}

// sameProb is the 1e-9 relative tolerance, with an absolute floor for
// answers that are zero on one side and rounding noise on the other.
func sameProb(got, want float64) bool {
	d := math.Abs(got - want)
	return d <= 1e-9*math.Max(math.Abs(got), math.Abs(want)) || d <= 1e-12
}

// checkAgainstOracle drives every probability-valued statement form, and
// the typed Prob* methods, over every label path of pi up to its depth and
// every object, and compares each answer with the enumeration. Statements
// with a tree route only (PROB VAL, COUNT, SELECT) must answer ErrNotTree
// on a DAG. It returns how many answers it compared.
func checkAgainstOracle(t *testing.T, pi *core.ProbInstance, or oracle) int {
	t.Helper()
	eng := New(pi)
	ctx := context.Background()
	tree := pi.IsTree()
	checked := 0
	prob := func(stmt string, want float64) {
		t.Helper()
		res, err := eng.Run(ctx, stmt)
		if err != nil {
			t.Errorf("%s: %v", stmt, err)
			return
		}
		if res.Prob == nil || !sameProb(*res.Prob, want) {
			t.Errorf("%s = %v, enumeration says %v", stmt, res.Prob, want)
		}
		checked++
	}
	typed := func(what string, got float64, err error, want float64) {
		t.Helper()
		if err != nil || !sameProb(got, want) {
			t.Errorf("%s = %v, %v; enumeration says %v", what, got, err, want)
		}
		checked++
	}
	treeOnly := func(stmt string, want float64) {
		t.Helper()
		if tree {
			prob(stmt, want)
			return
		}
		if _, err := eng.Run(ctx, stmt); !errors.Is(err, query.ErrNotTree) {
			t.Errorf("%s on a DAG: err = %v, want ErrNotTree", stmt, err)
		}
		checked++
	}

	objects := pi.Objects()
	for _, o := range objects {
		want := or.object(o)
		prob("PROB OBJECT "+o, want)
		got, err := eng.ProbObject(ctx, o)
		typed("ProbObject "+o, got, err, want)
	}
	for _, p := range labelPaths(pi) {
		prob("PROB EXISTS "+p.String(), or.exists(p))
		got, err := eng.ProbExists(ctx, p)
		typed("ProbExists "+p.String(), got, err, or.exists(p))
		treeOnly("COUNT "+p.String(), or.expectedCount(p))
		// Every object the path can reach, and one it cannot.
		for _, o := range append(p.Targets(pi.WeakInstance.Graph()), pi.Root()) {
			want := or.point(p, o)
			prob(fmt.Sprintf("PROB %s = %s", p, o), want)
			got, err := eng.ProbPoint(ctx, p, o)
			typed(fmt.Sprintf("ProbPoint %s %s", p, o), got, err, want)
			if want > 0 {
				treeOnly(fmt.Sprintf("SELECT %s = %s", p, o), want)
			}
			if vpf := pi.VPF(o); vpf != nil {
				vpf.Each(func(v model.Value, _ float64) {
					got, err := eng.ProbValue(ctx, p, o, v)
					typed(fmt.Sprintf("ProbValue %s %s %s", p, o, v), got, err, or.valuePoint(p, o, v))
					treeOnly(fmt.Sprintf("PROB VAL(%s) = %s", p, v), or.valueExists(p, v))
				})
			}
		}
	}
	return checked
}

// labelPaths returns every root-anchored label sequence that reaches an
// object in pi's weak instance graph.
func labelPaths(pi *core.ProbInstance) []pathexpr.Path {
	g := pi.WeakInstance.Graph()
	var out []pathexpr.Path
	frontier := []pathexpr.Path{{Root: pi.Root()}}
	for len(frontier) > 0 {
		var next []pathexpr.Path
		for _, p := range frontier {
			seen := map[string]bool{}
			for _, o := range p.Targets(g) {
				g.EachChild(o, func(_, label string) {
					if !seen[label] {
						seen[label] = true
						q := pathexpr.Path{Root: p.Root, Labels: append(append([]string(nil), p.Labels...), label)}
						next = append(next, q)
					}
				})
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

// TestEngineMatchesDirectEvaluation holds every answer the engine gives —
// through Run and through the typed methods, on the ε lane and on the BN
// lane — to the direct evaluation of the possible-worlds semantics: the
// tree bibliography, the paper's Figure 2 DAG, and random small trees and
// DAGs. A statement routed to the wrong lane answers ErrNotTree or a
// different number, so this is also the routing's test.
func TestEngineMatchesDirectEvaluation(t *testing.T) {
	for _, tc := range []struct {
		name string
		pi   *core.ProbInstance
	}{
		{"tree", treeBib(t)},
		{"dag", fixtures.Figure2VariedLeaves()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			or, ok := newOracle(t, tc.pi, 0)
			if !ok {
				t.Fatal("fixture too large to enumerate")
			}
			if n := checkAgainstOracle(t, tc.pi, or); n == 0 {
				t.Fatal("nothing compared")
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(21))
		const perLane = 30
		trees, dags, compared := 0, 0, 0
		for attempt := 0; trees < perLane || dags < perLane; attempt++ {
			if attempt == 2000 {
				t.Fatalf("only %d trees and %d DAGs small enough to enumerate", trees, dags)
			}
			pi := fixtures.RandomTree(r)
			if attempt%2 == 1 {
				pi = fixtures.RandomDAG(r)
			}
			lane := &dags
			if pi.IsTree() {
				lane = &trees
			}
			if *lane == perLane {
				continue
			}
			or, ok := newOracle(t, pi, 3000)
			if !ok {
				continue
			}
			compared += checkAgainstOracle(t, pi, or)
			*lane++
			if t.Failed() {
				t.Fatalf("instance %d (tree=%v) disagrees with its enumeration", attempt, pi.IsTree())
			}
		}
		t.Logf("%d trees and %d DAGs, %d answers compared", trees, dags, compared)
	})
}
