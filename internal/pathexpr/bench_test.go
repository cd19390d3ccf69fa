// External test package: the generated instance comes from gen, which
// imports pathexpr.
package pathexpr_test

import (
	"math/rand"
	"testing"

	"pxml/internal/gen"
	"pxml/internal/pathexpr"
)

// BenchmarkPathEval measures bare path-expression evaluation (the locate
// leg) on a 1 023-object instance.
func BenchmarkPathEval(b *testing.B) {
	in, err := gen.Generate(gen.Config{Depth: 9, Branch: 2, Labeling: gen.FR, Seed: 8, LeafDomainSize: 0})
	if err != nil {
		b.Fatal(err)
	}
	p, ok := in.RandomQuery(rand.New(rand.NewSource(5)))
	if !ok {
		b.Fatal("no satisfiable query")
	}
	g := in.PI.WeakInstance.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pathexpr.NewPlan(g, p, nil)
	}
}
