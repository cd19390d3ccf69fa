package enumerate

import (
	"context"
	"math/rand"
	"testing"

	"pxml/internal/fixtures"
	"pxml/internal/gen"
)

// BenchmarkEnumerateFigure2 tracks the cost of the possible-worlds oracle
// on the paper's running example.
func BenchmarkEnumerateFigure2(b *testing.B) {
	pi := fixtures.Figure2()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(pi, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKVsEnumerate contrasts the best-first top-k search against
// full enumeration on the Figure 2 instance (152 worlds) — the gap widens
// exponentially with instance size.
func BenchmarkTopKVsEnumerate(b *testing.B) {
	pi := fixtures.Figure2()
	b.Run("topk-3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TopK(context.Background(), pi, 3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumerate-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Enumerate(pi, 0); err != nil {
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
		if _, err := Sample(in.PI, r); err != nil {
			b.Fatal(err)
		}
	}
}
