package pathexpr

import (
	"testing"

	"pxml/internal/model"
)

// FuzzParse asserts Parse never panics and that accepted expressions
// round-trip through String.
func FuzzParse(f *testing.F) {
	f.Add("R.book.author")
	f.Add("R")
	f.Add("a.*.b")
	f.Add("..")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := Parse(in)
		if err != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("round trip rejected %q: %v", p.String(), err)
		}
		if back.String() != p.String() {
			t.Fatalf("round trip unstable: %q vs %q", back.String(), p.String())
		}
	})
}

// FuzzPlanDifferential builds a small graph, a path and a target restriction
// from the input bytes — any shape eight vertices allow, cycles and
// self-loops included — and holds the flat plan to the reference builder.
func FuzzPlanDifferential(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0x00, 1, 2, 9, 1})             // chain n0 -a-> n1 -b-> n2, path n0.a.b
	f.Add([]byte{2, 0, 0, 0xff, 1, 2, 1, 1, 2, 1})       // DAG: n2 met at two depths, every target
	f.Add([]byte{3, 3, 3, 0x05, 1, 2, 10, 3, 19, 0})     // wildcards over mixed labels, a cycle
	f.Add([]byte{1, 4, 0, 0x00, 1, 1})                   // a label no edge carries
	f.Add([]byte{4, 0, 0, 0x02, 0, 1, 1, 0, 0, 0, 1, 1}) // self-loop and a two-cycle
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		vertex := func(b byte) string { return "n" + string('0'+b%8) }
		labels := []string{"a", "b", "c", Wildcard, "zz"}
		p := Path{Root: "n0"}
		for i := 0; i < int(in[0]%5); i++ {
			p.Labels = append(p.Labels, labels[int(in[1+i%2]>>(2*uint(i/2)))%len(labels)])
		}
		var targets map[model.ObjectID]bool
		if in[3] != 0 {
			targets = map[model.ObjectID]bool{}
			for v := byte(0); v < 8; v++ {
				if in[3]&(1<<v) != 0 {
					targets[vertex(v)] = true
				}
			}
		}
		s := model.NewInstance("n0")
		for e := in[4:]; len(e) >= 2; e = e[2:] {
			// A pair the graph already labels differently is refused; the
			// rest of the input still applies.
			_ = s.AddEdge(vertex(e[0]), vertex(e[1]), labels[int(e[0]/8)%3])
		}
		g := s.Graph()
		if msg := checkPlan(g, p, targets); msg != "" {
			t.Fatalf("%s targets %v over %v: %s", p, targets, g.Edges(), msg)
		}
	})
}
