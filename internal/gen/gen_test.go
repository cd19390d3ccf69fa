package gen

import (
	"context"
	"math/rand"
	"testing"

	"pxml/internal/enumerate"
	"pxml/internal/query"
)

func TestNumObjects(t *testing.T) {
	cases := []struct{ d, b, want int }{
		{1, 2, 3},
		{2, 2, 7},
		{3, 2, 15},
		{2, 3, 13},
		{6, 8, 299593}, // the paper's largest configuration
		{3, 1, 4},
	}
	for _, c := range cases {
		if got := NumObjects(c.d, c.b); got != c.want {
			t.Errorf("NumObjects(%d,%d) = %d, want %d", c.d, c.b, got, c.want)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	for _, lab := range []Labeling{SL, FR} {
		in, err := Generate(Config{Depth: 3, Branch: 3, Labeling: lab, Seed: 7, LeafDomainSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		pi := in.PI
		if got, want := pi.NumObjects(), NumObjects(3, 3); got != want {
			t.Errorf("%s objects = %d, want %d", lab, got, want)
		}
		if !pi.IsTree() {
			t.Errorf("%s instance is not a tree", lab)
		}
		if err := pi.ValidateLite(); err != nil {
			t.Errorf("%s invalid: %v", lab, err)
		}
		// Every non-leaf OPF has 2^b entries (no cardinality constraint).
		st := pi.ComputeStats()
		nonLeaves := NumObjects(2, 3)
		if st.OPFEntries != nonLeaves*8 {
			t.Errorf("%s OPF entries = %d, want %d", lab, st.OPFEntries, nonLeaves*8)
		}
		if st.Depth != 3 {
			t.Errorf("%s depth = %d", lab, st.Depth)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Depth: 2, Branch: 2, Labeling: FR, Seed: 42, LeafDomainSize: 2}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PI.ComputeStats() != b.PI.ComputeStats() {
		t.Error("generation not deterministic")
	}
	// Same OPF probabilities on the root.
	for _, e := range a.PI.OPF("n0").Entries() {
		if b.PI.OPF("n0").Prob(e.Set) != e.Prob {
			t.Fatalf("root OPF differs at %v", e.Set)
		}
	}
}

func TestGenerateSLSharesLabels(t *testing.T) {
	in, err := Generate(Config{Depth: 2, Branch: 4, Labeling: SL, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range in.PI.Objects() {
		if in.PI.IsLeaf(o) {
			continue
		}
		if got := len(in.PI.Labels(o)); got != 1 {
			t.Errorf("SL parent %s has %d labels", o, got)
		}
	}
}

func TestGenerateSmallCoherent(t *testing.T) {
	// A tiny generated instance must induce a coherent distribution.
	in, err := Generate(Config{Depth: 2, Branch: 2, Labeling: FR, Seed: 11, LeafDomainSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := enumerate.Enumerate(in.PI, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := gi.TotalMass(); m < 1-1e-9 || m > 1+1e-9 {
		t.Errorf("mass = %v", m)
	}
}

func TestRandomQuerySatisfiable(t *testing.T) {
	in, err := Generate(Config{Depth: 3, Branch: 2, Labeling: FR, Seed: 5, LeafDomainSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		p, ok := in.RandomQuery(r)
		if !ok {
			t.Fatal("no satisfiable query found")
		}
		if p.Len() != 3 {
			t.Errorf("query length = %d", p.Len())
		}
		if len(p.Targets(in.PI.WeakInstance.Graph())) == 0 {
			t.Errorf("unsatisfiable query accepted: %s", p)
		}
		// The existence probability of an accepted query is positive
		// (all generated local probabilities are positive).
		e, err := query.ExistsQuery(context.Background(), in.PI, p)
		if err != nil {
			t.Fatal(err)
		}
		if e <= 0 {
			t.Errorf("accepted query %s has zero probability", p)
		}
	}
}

func TestRandomSelection(t *testing.T) {
	in, err := Generate(Config{Depth: 2, Branch: 3, Labeling: SL, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	p, o, ok := in.RandomSelection(r)
	if !ok {
		t.Fatal("no selection query found")
	}
	if !p.Matches(in.PI.WeakInstance.Graph(), o) {
		t.Errorf("selected object %s does not satisfy %s", o, p)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Depth: 0, Branch: 2, Labeling: SL}); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := Generate(Config{Depth: 2, Branch: 0, Labeling: SL}); err == nil {
		t.Error("zero branch accepted")
	}
	if _, err := Generate(Config{Depth: 2, Branch: 20, Labeling: SL}); err == nil {
		t.Error("oversized branch accepted")
	}
	if _, err := Generate(Config{Depth: 2, Branch: 2, Labeling: "XX"}); err == nil {
		t.Error("unknown labeling accepted")
	}
	if _, err := Generate(Config{Depth: 2, Branch: 2, Labeling: SL, LeafDomainSize: -1}); err == nil {
		t.Error("negative leaf domain accepted")
	}
}

func TestGenerateUntypedLeaves(t *testing.T) {
	in, err := Generate(Config{Depth: 2, Branch: 2, Labeling: SL, Seed: 1, LeafDomainSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	st := in.PI.ComputeStats()
	if st.VPFEntries != 0 {
		t.Errorf("untyped instance has %d VPF entries", st.VPFEntries)
	}
	if err := in.PI.ValidateLite(); err != nil {
		t.Fatal(err)
	}
}
