package enumerate

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// Sample draws one possible world from P_℘ by forward sampling: objects
// are visited in topological order of the weak instance graph; each
// present non-leaf samples a child set from its OPF and each present typed
// leaf samples a value from its VPF. The cost is linear in the number of
// present objects (plus the OPF scan per choice), so sampling scales to
// instances whose exact domain is astronomically large.
func Sample(pi *core.ProbInstance, r *rand.Rand) (*model.Instance, error) {
	g := pi.WeakInstance.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("enumerate: %w", err)
	}
	root := pi.Root()
	s := model.NewInstance(root)
	for _, t := range pi.Types() {
		_ = s.RegisterType(t)
	}
	present := map[model.ObjectID]bool{root: true}
	for _, o := range order {
		if !present[o] {
			continue
		}
		s.AddObject(o)
		if pi.IsLeaf(o) {
			vpf := pi.VPF(o)
			if vpf == nil {
				continue
			}
			u := r.Float64()
			acc := 0.0
			entries := vpf.Entries()
			for i, e := range entries {
				acc += e.Prob
				if u < acc || i == len(entries)-1 {
					t, _ := pi.TypeOf(o)
					if err := s.SetLeaf(o, t.Name, e.Value); err != nil {
						return nil, err
					}
					break
				}
			}
			continue
		}
		opf := pi.OPF(o)
		if opf == nil {
			return nil, fmt.Errorf("enumerate: non-leaf %s has no OPF", o)
		}
		c, err := sampleSet(opf, r)
		if err != nil {
			return nil, fmt.Errorf("enumerate: sampling children of %s: %w", o, err)
		}
		for _, ch := range c {
			l, _ := pi.LabelOf(o, ch)
			if err := s.AddEdge(o, ch, l); err != nil {
				return nil, err
			}
			present[ch] = true
		}
	}
	return s, nil
}

// sampleSet draws one child set from an OPF by inverse-CDF over its
// canonical entry order.
func sampleSet(opf *prob.OPF, r *rand.Rand) (sets.Set, error) {
	entries := opf.Entries()
	if len(entries) == 0 {
		return nil, fmt.Errorf("empty OPF")
	}
	u := r.Float64()
	acc := 0.0
	for i, e := range entries {
		acc += e.Prob
		if u < acc || i == len(entries)-1 {
			return e.Set, nil
		}
	}
	return entries[len(entries)-1].Set, nil
}

// Estimate is a Monte-Carlo estimate of P(pred) with its standard error.
type Estimate struct {
	P       float64
	StdErr  float64
	Samples int
}

// String renders the estimate as p ± stderr.
func (e Estimate) String() string {
	return fmt.Sprintf("%.6f ± %.6f (n=%d)", e.P, e.StdErr, e.Samples)
}

// EstimateProb estimates the probability that a possible world satisfies
// pred by drawing n forward samples. It is the approximate fallback for
// queries on instances too large for Enumerate (and too entangled for the
// tree fast paths): the error shrinks as 1/√n regardless of instance size.
// Under ctx's governor every sample charges the instance's object count
// against the step budget and polls the governor, so an adversarially
// large n stops within one sample of its budget (within one governor
// quantum of cancellation or the deadline) instead of running all n;
// without one, ctx itself is polled every 64 samples.
func EstimateProb(ctx context.Context, pi *core.ProbInstance, pred func(*model.Instance) bool, n int, r *rand.Rand) (Estimate, error) {
	if n <= 0 {
		return Estimate{}, fmt.Errorf("enumerate: sample count must be positive")
	}
	gov := govern.From(ctx)
	perSample := int64(pi.NumObjects())
	if perSample < 1 {
		perSample = 1
	}
	hits := 0
	for i := 0; i < n; i++ {
		if err := gov.Step(perSample); err != nil {
			return Estimate{}, err
		}
		if gov == nil && i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return Estimate{}, err
			}
		}
		s, err := Sample(pi, r)
		if err != nil {
			return Estimate{}, err
		}
		if pred(s) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	return Estimate{
		P:       p,
		StdErr:  math.Sqrt(p * (1 - p) / float64(n)),
		Samples: n,
	}, nil
}
