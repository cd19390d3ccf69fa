package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"pxml/internal/core"
	"pxml/internal/gen"
)

var benchSink *core.ProbInstance

// benchTrees calls run once per Section 7.1 tree of 341, 1 365 and 5 461
// objects (branching 4, depths 4–6) under both labelings.
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

// BenchmarkSelect is σ_{p=o} for a fixed random (p, o): it conditions one
// root chain, so time and allocations should not grow with the tree.
func BenchmarkSelect(b *testing.B) {
	benchTrees(b, func(b *testing.B, in *gen.Instance, r *rand.Rand) {
		p, o, ok := in.RandomSelection(r)
		if !ok {
			b.Fatal("no satisfiable selection")
		}
		cond := ObjectCondition{Path: p, Object: o}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, _, err := Select(in.PI, cond)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
	})
}

// BenchmarkAncestorProject is Λ_p for a fixed random full-depth p: it
// rebuilds every kept object's OPF, so it grows with the number of objects
// the result keeps, reported beside the time per one of them.
func BenchmarkAncestorProject(b *testing.B) {
	benchTrees(b, func(b *testing.B, in *gen.Instance, r *rand.Rand) {
		p, ok := in.RandomQuery(r)
		if !ok {
			b.Fatal("no satisfiable query")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := AncestorProject(in.PI, p)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
		kept := float64(benchSink.NumObjects())
		b.ReportMetric(kept, "kept-objects")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/kept, "ns/kept-object")
	})
}

// TestAncestorProjectAllocations pins what the flat plan and the dense ℘
// update bought: Λ_p of BenchmarkAncestorProject's query on its 341-object
// SL tree allocated 1 929 times through map-keyed plans and a keyed Add per
// survivor set, and allocates under 250 times now; on the two larger trees
// the count per kept object must not rise, i.e. it grows with what the
// projection keeps and with nothing else. An OPF that reached
// prob.OPFFromSorted out of canonical order would be re-accumulated through
// a keyed map and show up here.
func TestAncestorProjectAllocations(t *testing.T) {
	const ceiling = 250
	var smallest float64
	for _, depth := range []int{4, 5, 6} {
		in := genTree(t, depth, 4, gen.SL, 1)
		in.PI.IsTree()
		p, ok := in.RandomQuery(rand.New(rand.NewSource(1)))
		if !ok {
			t.Fatal("no satisfiable query")
		}
		out, err := AncestorProject(in.PI, p)
		if err != nil {
			t.Fatal(err)
		}
		kept := float64(out.NumObjects())
		if smallest == 0 {
			smallest = kept
		}
		allocs := testing.AllocsPerRun(10, func() { benchSink, _ = AncestorProject(in.PI, p) })
		if limit := ceiling * kept / smallest; allocs > limit {
			t.Errorf("%d objects, %v kept: %v allocations, want at most %.0f", in.PI.NumObjects(), kept, allocs, limit)
		}
	}
}
