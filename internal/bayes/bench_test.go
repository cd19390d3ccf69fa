package bayes

import (
	"context"
	"fmt"
	"testing"

	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/pathexpr"
)

var sink float64

// BenchmarkInferDAG runs the three statement kinds of e2ebench's
// infer_dag workload against one compiled width-5 diamond DAG.
func BenchmarkInferDAG(b *testing.B) {
	pi, err := gen.WidthBomb(gen.BombConfig{Width: 5, Parents: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	net, err := Compile(pi)
	if err != nil {
		b.Fatal(err)
	}
	p := pathexpr.MustParse("bomb.arm.leaf")
	for _, q := range []struct {
		name string
		ask  func() (float64, error)
	}{
		{"object_leaf", func() (float64, error) { return net.ProbExistsCtx(context.Background(), "leaf2") }},
		{"object_arm", func() (float64, error) { return net.ProbExistsCtx(context.Background(), "arm1") }},
		{"path_leaf", func() (float64, error) { return PathProbWith(net, pi, p, "leaf2") }},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr, err := q.ask()
				if err != nil {
					b.Fatal(err)
				}
				sink = pr
			}
		})
	}
}

// BenchmarkTreePath is a BN-lane point query on trees of 341, 1 365 and
// 5 461 objects: time and allocations should not grow with the tree.
func BenchmarkTreePath(b *testing.B) {
	for _, depth := range []int{4, 5, 6} {
		in, p, o := pointHotTree(b, depth)
		net, err := Compile(in.PI)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr, err := PathProbWith(net, in.PI, p, o)
				if err != nil {
					b.Fatal(err)
				}
				sink = pr
			}
		})
	}
}

// BenchmarkCompileFigure2 tracks the network compilation cost for the
// paper's running example.
func BenchmarkCompileFigure2(b *testing.B) {
	pi := fixtures.Figure2()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(pi); err != nil {
			b.Fatal(err)
		}
	}
}
