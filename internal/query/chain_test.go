package query

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// chainTestPaths returns path expressions over pi: random walks down from
// the root, which some object satisfies, their prefixes, each with a
// wildcard put in for a random label, and the same label sequences from a
// non-root object and with a label no edge carries.
func chainTestPaths(pi *core.ProbInstance, r *rand.Rand) []pathexpr.Path {
	g := pi.WeakInstance.Graph()
	var out []pathexpr.Path
	for walk := 0; walk < 12; walk++ {
		p := pathexpr.Path{Root: pi.Root()}
		for cur := pi.Root(); ; {
			kids := g.Children(cur)
			if len(kids) == 0 {
				break
			}
			next := kids[r.Intn(len(kids))]
			l, _ := g.Label(cur, next)
			p.Labels = append(p.Labels, l)
			cur = next
		}
		for n := 0; n <= p.Len(); n++ {
			prefix := pathexpr.Path{Root: p.Root, Labels: p.Labels[:n:n]}
			out = append(out, prefix)
			if n == 0 {
				continue
			}
			wild := pathexpr.Path{Root: p.Root, Labels: append([]model.Label(nil), prefix.Labels...)}
			wild.Labels[r.Intn(n)] = pathexpr.Wildcard
			out = append(out, wild)
			unknown := pathexpr.Path{Root: p.Root, Labels: append([]model.Label(nil), prefix.Labels...)}
			unknown.Labels[n-1] = "no-such-label"
			out = append(out, unknown)
			objs := pi.Objects()
			out = append(out, pathexpr.Path{Root: objs[r.Intn(len(objs))], Labels: prefix.Labels})
		}
	}
	return out
}

// TestPointQueryChainMatchesPlan: the point query read off o's root chain
// (pointEpsilon) is epsilonRoot with targets {o} — the same bits and the
// same governor steps — for every path of chainTestPaths and every object,
// non-members included, with and without a value query's success function.
// The trees are gen's SL and FR trees, on which the chain decides every
// pair; random DAGs add objects with several parents above them, which go
// to the plan, and single-parent chains in a graph that is no tree.
func TestPointQueryChainMatchesPlan(t *testing.T) {
	type instance struct {
		name string
		pi   *core.ProbInstance
		tree bool
	}
	var instances []instance
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		for _, depth := range []int{2, 3, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				in, err := gen.Generate(gen.Config{Depth: depth, Branch: 3, Labeling: lab, LeafDomainSize: 2, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				instances = append(instances, instance{"gen", in.PI, true})
			}
		}
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 20; i++ {
		instances = append(instances, instance{"dag", fixtures.RandomDAG(r), false})
	}
	pairs, members, shared := 0, 0, 0
	for _, inst := range instances {
		pi := inst.pi
		g := pi.WeakInstance.Graph()
		paths := chainTestPaths(pi, r)
		objects := append(pi.Objects(), "nosuch")
		for _, p := range paths {
			for _, o := range objects {
				chain, ok := pathexpr.RootChain(nil, g, p, o)
				if !ok && inst.tree {
					t.Fatalf("%s: RootChain(%s, %s) left a tree undecided", inst.name, p, o)
				}
				if !ok {
					shared++
				} else if chain != nil {
					members++
				}
				for _, success := range []func(model.ObjectID) float64{nil, valueSuccess(pi, "w0")} {
					chainGov := govern.New(context.Background(), govern.Budget{})
					planGov := govern.New(context.Background(), govern.Budget{})
					got, gotErr := pointEpsilon(pi, g, p, o, success, chainGov)
					want, wantErr := epsilonRoot(pi, g, p, map[model.ObjectID]bool{o: true}, success, planGov)
					if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s: P(%s ∈ %s): chain err %v, plan err %v", inst.name, o, p, gotErr, wantErr)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: P(%s ∈ %s): chain %v, plan %v", inst.name, o, p, got, want)
					}
					if chainGov.Steps() != planGov.Steps() {
						t.Fatalf("%s: P(%s ∈ %s): chain charged %d steps, plan %d", inst.name, o, p, chainGov.Steps(), planGov.Steps())
					}
					pairs++
				}
			}
		}
	}
	t.Logf("%d (path, object, success) triples; %d members by their chain, %d pairs sent to the plan", pairs, members, shared)
	if members == 0 || shared == 0 {
		t.Fatal("the instances no longer exercise both routes")
	}
}
