// Top-level benchmarks regenerating the PXML paper's evaluation (Section
// 7, Figure 7) plus the ablations DESIGN.md calls out. One benchmark per
// figure panel:
//
//	BenchmarkFig7aAncestorProjectionTotal — Fig 7(a): total query time of
//	    ancestor projection (copy + locate + structure + ℘ update + write).
//	BenchmarkFig7bAncestorProjectionUpdate — Fig 7(b): ℘-update time alone
//	    (reported as the "update-ms" metric).
//	BenchmarkFig7cSelectionTotal — Fig 7(c): total query time of selection.
//
// Ablations:
//
//	BenchmarkAblationPointQueryNaiveVsEfficient — the Section 6 claim that
//	    the local algorithms beat marginalizing over all compatible
//	    instances.
//	BenchmarkAblationPointQueryBayesVsEpsilon — generic BN inference vs the
//	    specialized ε recursion on trees.
//	BenchmarkAblationIndependentVsExplicitOPF — compact ProTDB-style OPFs
//	    vs explicit tables.
//	BenchmarkCodecEncode — the serialization leg that dominates Fig 7(c).
//
// Sub-benchmark names encode labeling, depth d, branching b and the object
// count n, so `go test -bench=Fig7` prints the panel series directly.
package pxml_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"pxml/internal/bayes"
	"pxml/internal/bench"
	"pxml/internal/codec"
	"pxml/internal/engine"
	"pxml/internal/enumerate"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/query"
)

// panelConfigs is the sweep used by the Figure 7 benchmarks: a subset of
// the paper's depth 3–9 × branch 2–8 grid chosen so the whole suite runs in
// minutes while still spanning two decades of instance sizes per series.
var panelConfigs = []struct{ depth, branch int }{
	{3, 2}, {5, 2}, {7, 2}, {9, 2},
	{3, 4}, {4, 4}, {5, 4}, {6, 4},
	{3, 8}, {4, 8},
}

func benchPanel(b *testing.B, op bench.Op, metric string) {
	scratch, err := os.CreateTemp(b.TempDir(), "pxml-bench-*.out")
	if err != nil {
		b.Fatal(err)
	}
	defer scratch.Close()
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		for _, pc := range panelConfigs {
			n := gen.NumObjects(pc.depth, pc.branch)
			name := fmt.Sprintf("%s/d%d_b%d_n%d", lab, pc.depth, pc.branch, n)
			b.Run(name, func(b *testing.B) {
				in, err := gen.Generate(gen.Config{
					Depth: pc.depth, Branch: pc.branch, Labeling: lab,
					LeafDomainSize: 2, Seed: int64(pc.depth*100 + pc.branch),
				})
				if err != nil {
					b.Fatal(err)
				}
				r := rand.New(rand.NewSource(7))
				b.ResetTimer()
				var updateNs, totalNs float64
				for i := 0; i < b.N; i++ {
					m, err := bench.MeasureQuery(op, in, r, scratch)
					if err != nil {
						b.Fatal(err)
					}
					updateNs += float64(m.Update)
					totalNs += float64(m.Total())
				}
				b.ReportMetric(totalNs/float64(b.N)/1e6, "total-ms/op")
				if metric == "update" {
					b.ReportMetric(updateNs/float64(b.N)/1e6, "update-ms/op")
				}
			})
		}
	}
}

// BenchmarkFig7aAncestorProjectionTotal regenerates Figure 7(a).
func BenchmarkFig7aAncestorProjectionTotal(b *testing.B) {
	benchPanel(b, bench.OpProjection, "total")
}

// BenchmarkFig7bAncestorProjectionUpdate regenerates Figure 7(b): the same
// pipeline with the ℘-update time reported as its own metric.
func BenchmarkFig7bAncestorProjectionUpdate(b *testing.B) {
	benchPanel(b, bench.OpProjection, "update")
}

// BenchmarkFig7cSelectionTotal regenerates Figure 7(c).
func BenchmarkFig7cSelectionTotal(b *testing.B) {
	benchPanel(b, bench.OpSelection, "total")
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
	r := rand.New(rand.NewSource(3))
	p, _, ok := in.RandomSelection(r)
	if !ok {
		b.Fatal("no query")
	}
	targets := p.Targets(in.PI.WeakInstance.Graph())
	o := targets[0]

	b.Run("efficient-epsilon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.PointQuery(in.PI, p, o); err != nil {
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
			_ = gi.ProbWhere(func(s *model.Instance) bool { return p.Matches(s.Graph(), o) })
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
		r := rand.New(rand.NewSource(4))
		p, o, ok := in.RandomSelection(r)
		if !ok {
			b.Fatal("no query")
		}
		b.Run(fmt.Sprintf("epsilon/d%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.PointQuery(in.PI, p, o); err != nil {
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

// BenchmarkAblationIndependentVsExplicitOPF measures the compact
// independent-children representation (ProTDB as a PXML special case)
// against the explicit table: expansion cost and membership-probability
// lookups.
func BenchmarkAblationIndependentVsExplicitOPF(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		iw := prob.NewIndependentOPF()
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("c%02d", i)
			iw.Put(names[i], 0.5)
		}
		expanded, err := iw.Expand()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("expand/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := iw.Expand(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("marginal-independent/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = iw.Prob(names[i%n])
			}
		})
		b.Run(fmt.Sprintf("marginal-explicit/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = expanded.ProbContains(names[i%n])
			}
		})
	}
}

// BenchmarkCodecEncode measures the serialization leg of the total query
// time (the dominant cost of Figure 7(c)) for both codecs across sizes.
func BenchmarkCodecEncode(b *testing.B) {
	for _, pc := range []struct{ depth, branch int }{{5, 2}, {7, 2}, {5, 4}} {
		in, err := gen.Generate(gen.Config{Depth: pc.depth, Branch: pc.branch, Labeling: gen.FR, Seed: 2, LeafDomainSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		n := gen.NumObjects(pc.depth, pc.branch)
		b.Run(fmt.Sprintf("text/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := codec.EncodeText(io.Discard, in.PI); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("json/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := codec.EncodeJSON(io.Discard, in.PI); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnumerateFigure2 tracks the cost of the possible-worlds oracle
// on the paper's running example.
func BenchmarkEnumerateFigure2(b *testing.B) {
	pi := fixtures.Figure2()
	for i := 0; i < b.N; i++ {
		if _, err := enumerate.Enumerate(pi, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBayesCompileFigure2 tracks the BN compilation cost for the
// paper's running example.
func BenchmarkBayesCompileFigure2(b *testing.B) {
	pi := fixtures.Figure2()
	for i := 0; i < b.N; i++ {
		if _, err := bayes.Compile(pi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathEval measures bare path-expression evaluation (the locate
// leg) on a 100k-object instance.
func BenchmarkPathEval(b *testing.B) {
	in, err := gen.Generate(gen.Config{Depth: 9, Branch: 2, Labeling: gen.FR, Seed: 8, LeafDomainSize: 0})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	p, ok := in.RandomQuery(r)
	if !ok {
		b.Fatal("no query")
	}
	g := in.PI.WeakInstance.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pathexpr.NewPlan(g, p, nil)
	}
}

// BenchmarkTopKVsEnumerate contrasts the best-first top-k search against
// full enumeration on the Figure 2 instance (152 worlds) — the gap widens
// exponentially with instance size.
func BenchmarkTopKVsEnumerate(b *testing.B) {
	pi := fixtures.Figure2()
	b.Run("topk-3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enumerate.TopK(pi, 3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumerate-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enumerate.Enumerate(pi, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSample measures forward-sampling throughput on a mid-size tree.
func BenchmarkSample(b *testing.B) {
	in, err := gen.Generate(gen.Config{Depth: 6, Branch: 2, Labeling: gen.FR, Seed: 3, LeafDomainSize: 2})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enumerate.Sample(in.PI, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathIndexVsDirect times path-plan computation on a 100k-object
// instance with a 4-label alphabet per level: a plan read from the graph's
// kept index (a step touches only same-label edges), and the index build a
// graph pays once, here forced by rebuilding an equal graph each iteration.
func BenchmarkPathIndexVsDirect(b *testing.B) {
	in, err := gen.Generate(gen.Config{Depth: 9, Branch: 2, Labeling: gen.FR, Seed: 8, LeafDomainSize: 0, LabelsPerLevel: 4})
	if err != nil {
		b.Fatal(err)
	}
	g := in.PI.WeakInstance.Graph()
	// Derive a guaranteed-satisfiable path by walking one root-to-leaf
	// chain (random label paths rarely survive 9 levels of a 4-letter
	// alphabet).
	p := pathexpr.Path{Root: in.PI.Root()}
	cur := in.PI.Root()
	for len(g.Children(cur)) > 0 {
		child := g.Children(cur)[0]
		l, _ := g.Label(cur, child)
		p.Labels = append(p.Labels, l)
		cur = child
	}
	pathexpr.NewIndex(g)
	b.Run("plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pathexpr.NewPlan(g, p, nil)
		}
	})
	b.Run("index-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := g.Clone()
			b.StartTimer()
			_ = pathexpr.NewIndex(fresh)
		}
	})
}

// BenchmarkEngineColdVsWarmPointQuery is the engine's headline pair: the
// same repeated point query against a generated workload instance, cold
// (every query re-derives the tree classification and walks the full edge
// set to plan the path) versus warm (an engine reusing its cached
// classification and label-partitioned index). The warm path must win by
// well over 2x on the 1000-object instance.
func BenchmarkEngineColdVsWarmPointQuery(b *testing.B) {
	in, err := gen.Generate(gen.Config{Depth: 9, Branch: 2, Labeling: gen.FR, Seed: 8, LeafDomainSize: 0, LabelsPerLevel: 4})
	if err != nil {
		b.Fatal(err)
	}
	g := in.PI.WeakInstance.Graph()
	// A guaranteed-satisfiable root-to-leaf path (cf. BenchmarkPathIndexVsDirect).
	p := pathexpr.Path{Root: in.PI.Root()}
	cur := in.PI.Root()
	for len(g.Children(cur)) > 0 {
		child := g.Children(cur)[0]
		l, _ := g.Label(cur, child)
		p.Labels = append(p.Labels, l)
		cur = child
	}
	o := cur
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.PointQuery(in.PI, p, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng := engine.New(in.PI)
	if err := eng.Warm(ctx); err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.ProbPoint(ctx, p, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineColdVsWarmDAG is the same pair on the paper's Figure 2
// DAG, where the cold path recompiles the Bayesian network per query and
// the warm engine compiles once and overlays each query on the shared network.
func BenchmarkEngineColdVsWarmDAG(b *testing.B) {
	pi := fixtures.Figure2()
	p := pathexpr.MustParse("R.book.author")
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bayes.PathProb(pi, p, "A1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng := engine.New(pi)
	if err := eng.Warm(ctx); err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.ProbPoint(ctx, p, "A1"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
