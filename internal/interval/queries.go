package interval

import (
	"fmt"
	"strings"

	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/sets"
)

// ErrNotTree mirrors the point-instance fast paths: interval queries are
// implemented for tree-structured weak instance graphs.
var ErrNotTree = fmt.Errorf("interval: weak instance graph is not a tree")

// ChainBound returns the tight probability interval of a root-anchored
// object chain: the product of the per-edge P(child ∈ c(parent)) bounds.
// Each factor's extremes are achieved by independent choices of distinct
// objects' local functions, so the product interval is tight.
func ChainBound(in *Instance, chain []model.ObjectID) (Bound, error) {
	if len(chain) == 0 {
		return Bound{}, fmt.Errorf("interval: empty chain")
	}
	if chain[0] != in.weak.Root() {
		return Bound{}, fmt.Errorf("interval: chain must start at root %s", in.weak.Root())
	}
	out := Point(1)
	for i := 0; i+1 < len(chain); i++ {
		w := in.opf[chain[i]]
		if w == nil {
			return Point(0), nil
		}
		if _, ok := in.weak.LabelOf(chain[i], chain[i+1]); !ok {
			return Point(0), nil
		}
		b, err := w.ProbContains(chain[i+1])
		if err != nil {
			return Bound{}, err
		}
		out = out.Mul(b)
		if out.Hi == 0 {
			return out, nil
		}
	}
	return out, nil
}

// PointBound returns the tight interval of P(o ∈ p) on a tree.
func PointBound(in *Instance, p pathexpr.Path, o model.ObjectID) (Bound, error) {
	return epsilonBound(in, p, map[model.ObjectID]bool{o: true}, nil)
}

// ExistsBound returns the tight interval of P(∃o. o ∈ p) on a tree.
func ExistsBound(in *Instance, p pathexpr.Path) (Bound, error) {
	return epsilonBound(in, p, nil, nil)
}

// ValueExistsBound returns the interval of P(∃ leaf o ∈ p with val v).
func ValueExistsBound(in *Instance, p pathexpr.Path, v model.Value) (Bound, error) {
	success := func(o model.ObjectID) Bound {
		if w := in.vpf[o]; w != nil {
			return tightValueBound(w, v)
		}
		return Point(0)
	}
	return epsilonBound(in, p, nil, success)
}

// tightValueBound narrows the stored bound of one value using the Σ = 1
// constraint over the leaf's domain (the VPF analogue of OPF.Tighten).
func tightValueBound(w *VPF, v model.Value) Bound {
	b, ok := w.bounds[v]
	if !ok {
		return Point(0)
	}
	sumLoOthers, sumHiOthers := 0.0, 0.0
	for u, ub := range w.bounds {
		if u == v {
			continue
		}
		sumLoOthers += ub.Lo
		sumHiOthers += ub.Hi
	}
	lo := b.Lo
	if 1-sumHiOthers > lo {
		lo = 1 - sumHiOthers
	}
	hi := b.Hi
	if 1-sumLoOthers < hi {
		hi = 1 - sumLoOthers
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if hi < lo {
		hi = lo
	}
	return Bound{Lo: lo, Hi: hi}
}

// epsilonBound is the interval form of the Section 6 ε recursion. For each
// kept object the failure probability fail = Σ_c ω(c)·Π_{j∈c∩kept}(1−ε_j)
// is extremized over ω with children's ε already at their own extremes —
// valid because distinct objects' local functions vary independently, and
// fail is monotone decreasing in every child ε. On a tree the resulting
// interval is tight.
func epsilonBound(in *Instance, p pathexpr.Path, targets map[model.ObjectID]bool, success func(model.ObjectID) Bound) (Bound, error) {
	if !in.weak.IsTree() {
		return Bound{}, ErrNotTree
	}
	if p.Root != in.weak.Root() {
		return Point(0), nil
	}
	if p.Len() == 0 {
		if success != nil {
			return success(in.weak.Root()), nil
		}
		if targets != nil && !targets[in.weak.Root()] {
			return Point(0), nil
		}
		return Point(1), nil
	}
	plan := pathexpr.NewPlan(in.weak.Graph(), p, targets)
	if plan.IsEmpty() {
		return Point(0), nil
	}
	// eps is indexed by plan position; the root is at 0.
	eps := make([]Bound, len(plan.Nodes))
	n := p.Len()
	matched, _ := plan.Level(n)
	for pos := matched; pos < len(plan.Nodes); pos++ {
		eps[pos] = Point(1)
		if success != nil {
			eps[pos] = success(plan.Nodes[pos].ID)
		}
	}
	var members []int32
	for level := n - 1; level >= 0; level-- {
		lo, hi := plan.Level(level)
		for pos := lo; pos < hi; pos++ {
			w := in.opf[plan.Nodes[pos].ID]
			if w == nil {
				return Bound{}, fmt.Errorf("interval: non-leaf %s has no interval OPF", plan.Nodes[pos].ID)
			}
			kids := plan.KidsOf(pos)
			// fail is the failure coefficient of a child set with its kept
			// children at one end of their ε bounds: ε max gives the least.
			fail := func(c sets.Set, epsMax bool) float64 {
				q := 1.0
				members = kidsIn(members[:0], plan, kids, c)
				for _, j := range members {
					if e := eps[kids[j].Pos]; epsMax {
						q *= 1 - e.Hi
					} else {
						q *= 1 - e.Lo
					}
				}
				return q
			}
			failLo, _, err := w.ExtremizeLinear(func(c sets.Set) float64 { return fail(c, true) })
			if err != nil {
				return Bound{}, err
			}
			_, failHi, err := w.ExtremizeLinear(func(c sets.Set) float64 { return fail(c, false) })
			if err != nil {
				return Bound{}, err
			}
			lo, hi := 1-failHi, 1-failLo
			if lo < 0 {
				lo = 0
			}
			if hi > 1 {
				hi = 1
			}
			if hi < lo {
				hi = lo
			}
			eps[pos] = Bound{Lo: lo, Hi: hi}
		}
	}
	return eps[0], nil
}

// kidsIn appends to dst, for every kept child in kids that is a member of
// the canonical set c, its index in kids. Both are in ascending id, so this
// is one merge walk. It is pathexpr.Members for an interval OPF, which has
// no bitset view.
func kidsIn(dst []int32, plan pathexpr.Plan, kids []pathexpr.Kid, c sets.Set) []int32 {
	for i, j := 0, 0; i < len(c) && j < len(kids); {
		switch strings.Compare(c[i], plan.Nodes[kids[j].Pos].ID) {
		case -1:
			i++
		case 1:
			j++
		default:
			dst = append(dst, int32(j))
			i++
			j++
		}
	}
	return dst
}
