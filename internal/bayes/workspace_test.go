package bayes

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// FuzzEliminateDifferential holds the pooled workspace to the
// allocate-per-call reference in eliminate_ref_test.go. Each input drives
// random factor sets and keep sets through eliminate, and ProbExists,
// PathProbWith and MarginalGiven through a random small DAG, every call
// made right after a different query left its workspace warm. The answers
// of eliminate, PathProbWith and MarginalGiven must be bit-identical and a
// governor must refuse both at the same point with the same error; budget
// 0 runs ungoverned. ProbExists computes existence from the parents'
// choices instead of eliminating the object's CPT, so it is held to the
// CPT marginal within 1e-12, and under a budget it must give the same bits
// or ErrBudgetExceeded.
func FuzzEliminateDifferential(f *testing.F) {
	for _, in := range []struct {
		seed   int64
		budget uint16
	}{{1, 0}, {2, 0}, {3, 0}, {4, 41}, {5, 400}, {6, 3001}, {7, 9000}} {
		f.Add(in.seed, in.budget)
	}
	warm, warmPI := bombNetwork(f, 5, 2)
	warmPath := pathexpr.MustParse("bomb.arm.leaf")
	f.Fuzz(func(t *testing.T, seed int64, budget uint16) {
		r := rand.New(rand.NewSource(seed))
		governed := func() context.Context {
			b := govern.Budget{MaxSteps: int64(budget)}
			if budget%2 == 0 {
				b = govern.Budget{MaxBytes: 8 * int64(budget)}
			}
			if budget == 0 {
				return context.Background()
			}
			return govern.With(context.Background(), govern.New(context.Background(), b))
		}
		// Factor sets: each round runs on the workspace the last one grew.
		w := new(workspace)
		pool := []int{0, 1, 2, 3, 5, 6, 7, 9}
		for round := 0; round < 6; round++ {
			var factors []*Factor
			for n := 1 + r.Intn(6); n > 0; n-- {
				var vs []int
				for _, v := range pool {
					if r.Intn(3) == 0 {
						vs = append(vs, v)
					}
				}
				factors = append(factors, randomFactor(r, vs))
			}
			keep := map[int]bool{}
			for _, v := range pool {
				if r.Intn(4) == 0 {
					keep[v] = true
				}
			}
			kept := func(v int) bool { return keep[v] }
			got, err := w.eliminate(govern.From(governed()), factors, kept)
			want, refErr := refEliminate(govern.From(governed()), factors, kept)
			sameOutcome(t, "eliminate", err, refErr)
			if err == nil {
				sameBits(t, "eliminate", got, want)
			}
			w.reset()
		}

		// A random small DAG: a diamond from gen or a random instance.
		var pi *core.ProbInstance
		labels := []model.Label{"a", "b", pathexpr.Wildcard}
		if r.Intn(2) == 0 {
			var err error
			pi, err = gen.WidthBomb(gen.BombConfig{Width: 1 + r.Intn(4), Parents: 1 + r.Intn(3), Seed: r.Int63()})
			if err != nil {
				t.Fatal(err)
			}
			labels = []model.Label{"arm", "leaf", pathexpr.Wildcard}
		} else {
			pi = fixtures.RandomDAG(r)
		}
		net, err := Compile(pi)
		if err != nil {
			t.Fatal(err)
		}
		objs := append(slices.Clone(pi.Objects()), "nosuch")
		pick := func() model.ObjectID { return objs[r.Intn(len(objs))] }
		warmUp := func(k int) {
			switch k % 3 {
			case 0:
				_, _ = PathProbWith(warm, warmPI, warmPath, "leaf3")
			case 1:
				_, _ = warm.ProbExistsCtx(context.Background(), "leaf1")
			default:
				_, _ = warm.MarginalGiven("leaf0", Evidence{Exists: []model.ObjectID{"arm1"}})
			}
		}
		for k := 0; k < 6; k++ {
			o := pick()
			warmUp(k)
			got, err := net.ProbExistsCtx(context.Background(), o)
			want, refErr := net.refProbExistsCtx(context.Background(), o)
			sameOutcome(t, "ProbExists("+o+")", err, refErr)
			nearFloat(t, "ProbExists("+o+")", got, want)
			warmUp(k + 1)
			if gov, err := net.ProbExistsCtx(governed(), o); err == nil {
				sameFloat(t, "governed ProbExists("+o+")", gov, got)
			} else if refErr == nil && !errors.Is(err, govern.ErrBudgetExceeded) {
				t.Fatalf("governed ProbExists(%s): %v, want an answer or ErrBudgetExceeded", o, err)
			}

			p := pathexpr.Path{Root: pi.Root()}
			for i := 1 + r.Intn(3); i > 0; i-- {
				p.Labels = append(p.Labels, labels[r.Intn(len(labels))])
			}
			target := pick()
			if r.Intn(3) == 0 {
				target = ""
			}
			warmUp(k + 1)
			got, err = PathProbWithCtx(governed(), net, pi, p, target)
			want, refErr = refPathProbOn(governed(), net, pi, p, target)
			what := "PathProbWith(" + p.String() + ", " + target + ")"
			sameOutcome(t, what, err, refErr)
			sameFloat(t, what, got, want)

			var ev Evidence
			for i := r.Intn(3); i > 0; i-- {
				ev.Exists = append(ev.Exists, pick())
			}
			for i := r.Intn(3); i > 0; i-- {
				ev.Absent = append(ev.Absent, pick())
			}
			warmUp(k + 2)
			gotM, err := net.MarginalGiven(o, ev)
			wantM, refErr := net.refMarginalGiven(o, ev)
			sameOutcome(t, "MarginalGiven("+o+")", err, refErr)
			if len(gotM) != len(wantM) {
				t.Fatalf("MarginalGiven(%s, %v): %v, reference %v", o, ev, gotM, wantM)
			}
			for st, v := range wantM {
				sameFloat(t, "MarginalGiven("+o+") state "+st, gotM[st], v)
			}
		}
	})
}

func sameOutcome(t *testing.T, what string, err, ref error) {
	t.Helper()
	if (err == nil) != (ref == nil) || err != nil && err.Error() != ref.Error() {
		t.Fatalf("%s: error %v, reference %v", what, err, ref)
	}
}

func sameFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, reference %v", what, got, want)
	}
}

// nearFloat holds an answer computed by a different elimination to its
// reference: within 1e-12 relative, or absolute below 1.
func nearFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12*math.Max(1, math.Max(math.Abs(got), math.Abs(want))) {
		t.Fatalf("%s = %v, reference %v", what, got, want)
	}
}

func sameBits(t *testing.T, what string, got, want *Factor) {
	t.Helper()
	if !slices.Equal(got.vars, want.vars) || !slices.Equal(got.card, want.card) || len(got.vals) != len(want.vals) {
		t.Fatalf("%s: over %v %v, reference over %v %v", what, got.vars, got.card, want.vars, want.card)
	}
	for i := range want.vals {
		sameFloat(t, what, got.vals[i], want.vals[i])
	}
}

// bombNetwork compiles a width × parents diamond DAG from gen.
func bombNetwork(tb testing.TB, width, parents int) (*Network, *core.ProbInstance) {
	tb.Helper()
	pi, err := gen.WidthBomb(gen.BombConfig{Width: width, Parents: parents, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	net, err := Compile(pi)
	if err != nil {
		tb.Fatal(err)
	}
	return net, pi
}

// TestInferAllocations pins what the pooled workspace bought: the three
// statements of BenchmarkInferDAG allocated 25, 17 and 85 times before it
// and a point query on the 5 461-object tree 131 times; a warm query now
// allocates nothing in bayes. The ceilings leave a margin of one or two.
// The race detector changes what escapes and drops pooled workspaces at
// random, so the test does not run under it.
func TestInferAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts under -race are not the program's")
	}
	net, pi := bombNetwork(t, 5, 2)
	p := pathexpr.MustParse("bomb.arm.leaf")
	tree, tp, to := pointHotTree(t, 6)
	treeNet, err := Compile(tree.PI)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		ask     func() (float64, error)
	}{
		{"object_leaf", 1, func() (float64, error) { return net.ProbExistsCtx(context.Background(), "leaf2") }},
		{"object_arm", 1, func() (float64, error) { return net.ProbExistsCtx(context.Background(), "arm1") }},
		{"path_leaf", 2, func() (float64, error) { return PathProbWith(net, pi, p, "leaf2") }},
		{"tree_depth6", 2, func() (float64, error) { return PathProbWith(treeNet, tree.PI, tp, to) }},
	} {
		if _, err := c.ask(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { sink, _ = c.ask() }); got > c.ceiling {
			t.Errorf("%s: %v allocations per query, want at most %v", c.name, got, c.ceiling)
		}
	}
}

// TestWorkspaceRetention: a workspace keeps the room a small query grew it
// to, but one that eliminated a table of half the hard cap goes back to the
// pool holding at most maxPooledWords.
func TestWorkspaceRetention(t *testing.T) {
	w := new(workspace)
	net, _ := bombNetwork(t, 3, 2)
	w.seeds = append(w.seeds[:0], 2)
	if _, err := net.joint(nil, w, 2); err != nil {
		t.Fatal(err)
	}
	w.reset()
	small := w.words()
	if small == 0 || small > maxPooledWords {
		t.Fatalf("after a small query the workspace holds %d words, want some and at most %d", small, maxPooledWords)
	}
	// Eliminating variable 1 from (0, 1) × (1, 2) leaves a τ over (0, 2)
	// of 2048·1024 cells, half the hard cap; the bucket's product is never
	// built.
	a := NewFactor([]int{0, 1}, []int{2048, 2})
	b := NewFactor([]int{1, 2}, []int{2, 1024})
	out, err := w.eliminate(nil, []*Factor{a, b}, func(v int) bool { return v != 1 })
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2048*1024 || w.words() < MaxFactorEntries/2 {
		t.Fatalf("result of %d cells from a workspace of %d words; the test no longer builds a large table", out.Size(), w.words())
	}
	w.reset()
	if got := w.words(); got > maxPooledWords {
		t.Errorf("after a query of %d cells the workspace keeps %d words, want at most %d", MaxFactorEntries/2, got, maxPooledWords)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
