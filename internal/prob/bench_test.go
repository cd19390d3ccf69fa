package prob

import (
	"fmt"
	"testing"
)

var benchSink float64

// BenchmarkAblationIndependentVsExplicitOPF measures the compact
// independent-children representation (ProTDB as a PXML special case)
// against the explicit table: expansion cost and membership-probability
// lookups.
func BenchmarkAblationIndependentVsExplicitOPF(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		iw := NewIndependentOPF()
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
				benchSink = iw.Prob(names[i%n])
			}
		})
		b.Run(fmt.Sprintf("marginal-explicit/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = expanded.ProbContains(names[i%n])
			}
		})
	}
}
