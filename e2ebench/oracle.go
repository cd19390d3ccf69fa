package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pxml/internal/algebra"
	"pxml/internal/bayes"
	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/model"
	"pxml/internal/query"
)

// oracleSample is how many tree point queries per workload are checked
// against the BN lane as well as the chain product.
const oracleSample = 32

// bnOracleMaxObjects bounds the trees the BN lane is asked about: path
// elimination on a tree is quadratic or worse in its objects (94 s per
// query at 5 461 objects), so larger trees keep the chain product only.
const bnOracleMaxObjects = 400

// oracleTol is the relative tolerance between two exact lanes that sum
// the same products in different orders.
const oracleTol = 1e-9

// oracle holds, per request, the answer an independent path computed at
// set-up: possible-world enumeration (Theorem 1) for DAG statements; for
// tree point queries the Section 6.2 chain product along the object's
// unique root chain, and for a sample on small trees the BN lane too; the
// ε lane for SELECT probabilities; direct algebra calls for PROJECT
// object counts.
type oracle struct {
	prob    []float64 // NaN: not checked by value
	objects []int     // -1: not checked
}

func newOracle(w *workload, sz sizes) (*oracle, error) {
	n := len(w.requests)
	or := &oracle{prob: make([]float64, n), objects: make([]int, n)}
	for i := range or.prob {
		or.prob[i], or.objects[i] = math.NaN(), -1
	}
	worlds := map[*core.ProbInstance]*enumerate.GlobalInterpretation{}
	nets := map[*core.ProbInstance]*bayes.Network{}
	treePoints := 0
	for i := range w.requests {
		if rq := &w.requests[i]; rq.kind == kindPoint && rq.tree {
			treePoints++
		}
	}
	stride, seen := treePoints/sz.of(oracleSample, 2), 0
	if stride < 1 {
		stride = 1
	}
	for i := range w.requests {
		rq := &w.requests[i]
		var err error
		switch {
		case rq.kind == kindPut:
			or.objects[i] = rq.pi.NumObjects()
		case rq.kind == kindProject:
			var out *core.ProbInstance
			if out, err = algebra.AncestorProject(rq.pi, rq.path); err == nil {
				or.objects[i] = out.NumObjects()
			}
		case rq.kind == kindSelect:
			or.prob[i], err = query.PointQuery(rq.pi, rq.path, rq.obj)
		case !rq.tree:
			gi := worlds[rq.pi]
			if gi == nil {
				if gi, err = enumerate.Enumerate(rq.pi, 0); err != nil {
					break
				}
				worlds[rq.pi] = gi
			}
			or.prob[i] = gi.ProbWhere(func(s *model.Instance) bool {
				if rq.kind == kindObject {
					return s.HasObject(rq.obj)
				}
				return rq.path.Matches(s.Graph(), rq.obj)
			})
		default: // point query on a tree
			if or.prob[i], err = chainProduct(rq); err != nil {
				break
			}
			if seen++; (seen-1)%stride != 0 || rq.pi.NumObjects() > bnOracleMaxObjects {
				break
			}
			net := nets[rq.pi]
			if net == nil {
				if net, err = bayes.Compile(rq.pi); err != nil {
					break
				}
				nets[rq.pi] = net
			}
			var bn float64
			if bn, err = bayes.PathProbWith(net, rq.pi, rq.path, rq.obj); err == nil && !agree(bn, or.prob[i]) {
				err = fmt.Errorf("BN lane says %.15g, chain product %.15g", bn, or.prob[i])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("oracle for %s %q: %w", rq.name, rq.text, err)
		}
	}
	return or, nil
}

// chainProduct is P(o ∈ p) on a tree: o has one root chain, it satisfies p
// exactly when the chain exists (generated paths match o structurally),
// and the chain's probability is the product of each link's marginal.
func chainProduct(rq *request) (float64, error) {
	g := rq.pi.WeakInstance.Graph()
	chain := []model.ObjectID{rq.obj}
	for o := rq.obj; o != rq.pi.Root(); {
		ps := g.Parents(o)
		if len(ps) != 1 {
			return 0, fmt.Errorf("%s has %d parents in a tree", o, len(ps))
		}
		o = ps[0]
		chain = append(chain, o)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	if len(chain) != rq.path.Len()+1 {
		return 0, nil
	}
	for k, l := range rq.path.Labels {
		if got, _ := rq.pi.LabelOf(chain[k], chain[k+1]); got != l {
			return 0, nil
		}
	}
	return query.ChainProb(rq.pi, chain)
}

func agree(got, want float64) bool {
	d := math.Abs(got - want)
	return d <= oracleTol*math.Abs(want) || d <= 1e-15
}

// check compares one response body with the oracle's answer for request i.
func (or *oracle) check(i int, body []byte) error {
	var resp struct {
		Text    string
		Prob    *float64
		Objects *int
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("response is not JSON: %w", err)
	}
	if want := or.prob[i]; !math.IsNaN(want) {
		if resp.Prob == nil {
			return fmt.Errorf("response carries no prob, oracle says %.12g", want)
		}
		if !agree(*resp.Prob, want) {
			return fmt.Errorf("prob %.15g, oracle says %.15g", *resp.Prob, want)
		}
	}
	if want := or.objects[i]; want >= 0 {
		got := -1
		if resp.Objects != nil { // PUT acknowledgement
			got = *resp.Objects
		} else if f := strings.Fields(resp.Text); len(f) >= 2 { // "Λ_p: N objects"
			got, _ = strconv.Atoi(f[len(f)-2])
		}
		if got != want {
			return fmt.Errorf("%d objects, oracle says %d (%q)", got, want, resp.Text)
		}
	}
	return nil
}
