package algebra

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/pathexpr"
)

// TestOperatorsEmitWellPlacedFunctions is the audit behind ValidateLite's
// refusal of an OPF on a leaf and a VPF on a non-leaf: on random trees, typed
// and untyped, every operator that returns an instance — the three
// projections, selection under each condition kind, the Cartesian product —
// returns one that passes it. A projection whose matched object loses its
// children leaves it with neither function; one whose object keeps no
// surviving child drops it.
func TestOperatorsEmitWellPlacedFunctions(t *testing.T) {
	check := func(t *testing.T, what string, out *core.ProbInstance, err error) {
		t.Helper()
		if err != nil {
			return // refusals are other tests' concern
		}
		if verr := out.ValidateLite(); verr != nil {
			t.Errorf("%s: %v", what, verr)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
			for _, domain := range []int{2, 0} {
				in, err := gen.Generate(gen.Config{Depth: 3, Branch: 3, Labeling: lab, LeafDomainSize: domain, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				if p, ok := in.RandomQuery(r); ok {
					out, err := AncestorProject(in.PI, p)
					check(t, "Λ "+p.String(), out, err)
					out, err = SingleProject(in.PI, p)
					check(t, "single "+p.String(), out, err)
					out, err = DescendantProject(in.PI, p)
					check(t, "descendant "+p.String(), out, err)
				}
				for kind, cond := range randomConditions(in, r) {
					out, _, err := Select(in.PI, cond)
					check(t, "σ "+kind, out, err)
				}
				other := genTree(t, 2, 2, lab, seed+100)
				out, _, err := CartesianProduct(in.PI, other.PI, "product-root")
				check(t, "×", out, err)
			}
		}
	}
}

// TestAncestorProjectConcurrent: projections running at once on shared
// trees each take their own plan walk and updater from the pools, so every
// result is, byte for byte, the one a lone call returns.
func TestAncestorProjectConcurrent(t *testing.T) {
	type job struct {
		pi   *core.ProbInstance
		p    pathexpr.Path
		want []byte
	}
	var jobs []job
	for seed := int64(1); seed <= 4; seed++ {
		for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
			in := genTree(t, 3, 4, lab, seed)
			in.PI.IsTree()
			p, ok := in.RandomQuery(rand.New(rand.NewSource(seed)))
			if !ok {
				continue
			}
			out, err := AncestorProject(in.PI, p)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{in.PI, p, codec.AppendBinary(nil, out)})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(jobs); i++ {
				j := jobs[(g+i)%len(jobs)]
				out, err := AncestorProject(j.pi, j.p)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(codec.AppendBinary(nil, out), j.want) {
					t.Errorf("Λ_%s differs from the lone call's result", j.p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
