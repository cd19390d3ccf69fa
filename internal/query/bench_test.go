package query

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"pxml/internal/bayes"
	"pxml/internal/enumerate"
	"pxml/internal/gen"
	"pxml/internal/model"
)

var benchSink float64

// benchTrees calls run once per Section 7.1 tree of 341, 1 365 and 5 461
// objects (branching 4, depths 4–6) under both labelings — the trees of
// algebra's BenchmarkAncestorProject.
func benchTrees(b *testing.B, run func(b *testing.B, in *gen.Instance, r *rand.Rand)) {
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		for _, depth := range []int{4, 5, 6} {
			in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: lab, LeafDomainSize: 2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			in.PI.IsTree() // memoize the graph and verdict, as a served instance has
			b.Run(fmt.Sprintf("%s/objects%d", lab, in.PI.NumObjects()), func(b *testing.B) {
				run(b, in, rand.New(rand.NewSource(1)))
			})
		}
	}
}

// BenchmarkPointQuery is P(o ∈ p) for a fixed random full-depth (p, o): the
// plan walks every object p reaches before it keeps o's one root chain, so
// the time follows p's level sets, not the chain.
func BenchmarkPointQuery(b *testing.B) {
	benchTrees(b, func(b *testing.B, in *gen.Instance, r *rand.Rand) {
		p, o, ok := in.RandomSelection(r)
		if !ok {
			b.Fatal("no satisfiable selection")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := PointQuery(in.PI, p, o)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = pr
		}
	})
}

// BenchmarkExistsQuery is P(∃ p) for a fixed random full-depth p on a tree
// every reader has used.
func BenchmarkExistsQuery(b *testing.B) { benchExists(b, false) }

// BenchmarkExistsQueryCold is BenchmarkExistsQuery on a version no reader
// has used yet: each op asks a fresh Overlay of the tree, which shares its
// graph but starts without a bitset view, so the op reads the rows of the
// objects it visits (DESIGN §36) as the first query of a newly stored
// version does.
func BenchmarkExistsQueryCold(b *testing.B) { benchExists(b, true) }

func benchExists(b *testing.B, cold bool) {
	benchTrees(b, func(b *testing.B, in *gen.Instance, r *rand.Rand) {
		p, ok := in.RandomQuery(r)
		if !ok {
			b.Fatal("no satisfiable query")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pi := in.PI
			if cold {
				pi = pi.Overlay()
			}
			pr, err := ExistsQuery(context.Background(), pi, p)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = pr
		}
	})
}

// BenchmarkAblationPointQueryNaiveVsEfficient compares the Section 6.2
// ε algorithm against naive marginalization over all compatible instances
// (the paper's implicit baseline) on an instance small enough for the
// latter to finish.
func BenchmarkAblationPointQueryNaiveVsEfficient(b *testing.B) {
	in, err := gen.Generate(gen.Config{Depth: 3, Branch: 2, Labeling: gen.FR, Seed: 5, LeafDomainSize: 0})
	if err != nil {
		b.Fatal(err)
	}
	p, _, ok := in.RandomSelection(rand.New(rand.NewSource(3)))
	if !ok {
		b.Fatal("no satisfiable selection")
	}
	o := p.Targets(in.PI.WeakInstance.Graph())[0]

	b.Run("efficient-epsilon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PointQuery(in.PI, p, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gi, err := enumerate.Enumerate(in.PI, 0)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = gi.ProbWhere(func(s *model.Instance) bool { return p.Matches(s.Graph(), o) })
		}
	})
}

// BenchmarkAblationPointQueryBayesVsEpsilon compares generic variable
// elimination — compiling the network per query (bayes-ve) and over a
// network compiled once (bayes-warm) — against the specialized ε
// recursion on tree instances of growing size.
func BenchmarkAblationPointQueryBayesVsEpsilon(b *testing.B) {
	for _, depth := range []int{3, 4, 5} {
		in, err := gen.Generate(gen.Config{Depth: depth, Branch: 2, Labeling: gen.SL, Seed: 11, LeafDomainSize: 0})
		if err != nil {
			b.Fatal(err)
		}
		p, o, ok := in.RandomSelection(rand.New(rand.NewSource(4)))
		if !ok {
			b.Fatal("no satisfiable selection")
		}
		b.Run(fmt.Sprintf("epsilon/d%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PointQuery(in.PI, p, o); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bayes-ve/d%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bayes.PathProb(in.PI, p, o); err != nil {
					b.Fatal(err)
				}
			}
		})
		net, err := bayes.Compile(in.PI)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bayes-warm/d%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bayes.PathProbWith(net, in.PI, p, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPointQueryAllocations pins the ε lane's allocations for a depth-4
// chain on the 341-object SL tree: the plan's slices, ε by position and the
// one-entry target set, nothing per OPF entry. With the plan's walk reused
// it measures 5; the flat plan with a fresh walk per call measured 7, and the
// map-keyed plan before it 134, a copy of every OPF the chain reads among
// them. The race detector drops pooled walks at random, so the test does
// not run under it.
func TestPointQueryAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts under -race are not the program's")
	}
	in, err := gen.Generate(gen.Config{Depth: 4, Branch: 4, Labeling: gen.SL, LeafDomainSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in.PI.IsTree()
	p, o, ok := in.RandomSelection(rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("no satisfiable selection")
	}
	const ceiling = 6 // 20 % above the 5 measured
	if allocs := testing.AllocsPerRun(50, func() { benchSink, _ = PointQuery(in.PI, p, o) }); allocs > ceiling {
		t.Errorf("PointQuery allocates %v times, want at most %d", allocs, ceiling)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
