package algebra

import (
	"fmt"

	"pxml/internal/core"
	"pxml/internal/graph"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// Condition is a selection condition sc (Section 5.2). Each condition kind
// can render itself and report whether a deterministic semistructured
// instance satisfies it — the latter defines the global semantics of
// Definition 5.6 and is used by the enumeration oracle.
type Condition interface {
	// Satisfies reports whether the (deterministic) instance satisfies the
	// condition.
	Satisfies(s *model.Instance) bool
	// String renders the condition in the paper's notation.
	String() string
}

// ObjectCondition is the object selection condition p = o of Definition
// 5.4: the instance contains object o reachable via path expression p.
type ObjectCondition struct {
	Path   pathexpr.Path
	Object model.ObjectID
}

// Satisfies implements Condition.
func (c ObjectCondition) Satisfies(s *model.Instance) bool {
	return c.Path.Matches(s.Graph(), c.Object)
}

func (c ObjectCondition) String() string { return fmt.Sprintf("%s = %s", c.Path, c.Object) }

// ValueCondition is the value selection condition val(p) = v of Definition
// 5.5: some leaf reachable via p carries value v.
type ValueCondition struct {
	Path  pathexpr.Path
	Value model.Value
}

// Satisfies implements Condition.
func (c ValueCondition) Satisfies(s *model.Instance) bool {
	for _, o := range c.Path.Targets(s.Graph()) {
		if v, ok := s.ValueOf(o); ok && v == c.Value {
			return true
		}
	}
	return false
}

func (c ValueCondition) String() string { return fmt.Sprintf("val(%s) = %s", c.Path, c.Value) }

// CardCondition is the cardinality-comparison condition the paper sketches
// below Definition 5.5 ("comparisons based on, for example, cardinality"):
// the object reached by p has a number of l-labeled children within Range.
type CardCondition struct {
	Path   pathexpr.Path
	Object model.ObjectID
	Label  model.Label
	Range  sets.Interval
}

// Satisfies implements Condition.
func (c CardCondition) Satisfies(s *model.Instance) bool {
	if !c.Path.Matches(s.Graph(), c.Object) {
		return false
	}
	return c.Range.Contains(len(s.LCh(c.Object, c.Label)))
}

func (c CardCondition) String() string {
	return fmt.Sprintf("%s = %s ∧ |lch(%s,%s)| ∈ %s", c.Path, c.Object, c.Object, c.Label, c.Range)
}

// Select applies the selection operator σ_sc (Definition 5.6) to a
// probabilistic instance using the efficient local algorithm: the structure
// of the instance is unchanged, and only the local interpretations of the
// objects along the path to the selected object are conditioned — the
// behaviour the Figure 7(c) experiment relies on ("the number [of updated
// objects] is the same as the depth"). It returns the updated instance and
// the probability of the selection condition (by which the global
// distribution was renormalized).
//
// The fast path requires a tree-structured weak instance graph and a
// condition whose event is local to one root-to-object chain:
//   - ObjectCondition: always representable on a tree;
//   - ValueCondition: representable when exactly one object matches the
//     path (a disjunction over several leaves does not factor;
//     ErrNotRepresentable is returned — use SelectGlobal);
//   - CardCondition: object plus a constraint on its own OPF.
func Select(pi *core.ProbInstance, cond Condition) (*core.ProbInstance, float64, error) {
	if !pi.IsTree() {
		return nil, 0, ErrNotTree
	}
	return SelectTimed(pi, cond, nil)
}

// SelectTimed is Select without the tree check (the caller vouches for
// tree structure), recording phase timings. The result is an Overlay of pi:
// it shares everything selection leaves unchanged, so sink.Copy records
// setting that up rather than a copy.
func SelectTimed(pi *core.ProbInstance, cond Condition, sink *Timings) (*core.ProbInstance, float64, error) {
	sw := newStopwatch(sink)
	out := pi.Overlay()
	sw.lap(phaseCopy)

	switch c := cond.(type) {
	case Conjunction:
		p, err := selectConjunction(pi, out, c, sw)
		return out, p, err
	case ObjectCondition:
		p, err := conditionChain(pi, out, c.Path, c.Object, sw, nil)
		return out, p, err
	case CardCondition:
		extra := func(o model.ObjectID) (float64, error) {
			opf := pi.OPF(o)
			if opf == nil {
				// The selected object is a leaf: the cardinality
				// constraint holds iff it admits zero children.
				if c.Range.Contains(0) {
					return 1, nil
				}
				return 0, ErrZeroProbability
			}
			ccond, norm, ok := opf.Condition(func(s sets.Set) bool {
				n := 0
				for _, ch := range s {
					if l, lok := pi.LabelOf(o, ch); lok && l == c.Label {
						n++
					}
				}
				return c.Range.Contains(n)
			})
			if !ok {
				return 0, ErrZeroProbability
			}
			out.SetOPF(o, ccond)
			return norm, nil
		}
		p, err := conditionChain(pi, out, c.Path, c.Object, sw, extra)
		return out, p, err
	case ValueCondition:
		g := pi.WeakInstance.Graph()
		targets := c.Path.Targets(g)
		var leaves []model.ObjectID
		for _, o := range targets {
			if v := pi.VPF(o); v != nil && v.Prob(c.Value) > 0 {
				leaves = append(leaves, o)
			}
		}
		if len(leaves) == 0 {
			return nil, 0, fmt.Errorf("%w: no leaf on %s can carry %q", ErrZeroProbability, c.Path, c.Value)
		}
		if len(leaves) > 1 {
			return nil, 0, fmt.Errorf("%w: %d leaves match %s", ErrNotRepresentable, len(leaves), c.Path)
		}
		o := leaves[0]
		extra := func(model.ObjectID) (float64, error) {
			vp := pi.VPF(o).Prob(c.Value)
			out.SetVPF(o, prob.PointMass(c.Value))
			return vp, nil
		}
		p, err := conditionChain(pi, out, c.Path, o, sw, extra)
		return out, p, err
	default:
		return nil, 0, fmt.Errorf("algebra: unsupported condition type %T", cond)
	}
}

// conditionChain conditions every ancestor OPF along the unique
// root-to-object chain on containing the next chain object, applying an
// optional extra conditioning step at the selected object itself. It
// returns the total probability of the conditioned event. An entry holds
// the chain object when the bit at its slot in the parent's row is set in
// the entry's child set (core.ChildSets, DESIGN §36).
func conditionChain(pi, out *core.ProbInstance, p pathexpr.Path, o model.ObjectID, sw *stopwatch, extra func(model.ObjectID) (float64, error)) (float64, error) {
	g := pi.WeakInstance.Graph()
	chain, err := rootChain(g, p, o)
	sw.lap(phaseLocate)
	if err != nil {
		return 0, err
	}
	if chain[len(chain)-1] != pi.Root() {
		return 0, fmt.Errorf("%w: %s not reachable from root via %s", ErrZeroProbability, o, p)
	}
	// chain is o … root; walk top-down conditioning each ancestor on
	// containing its chain child.
	total := 1.0
	view := pi.ChildSets()
	for i := len(chain) - 1; i >= 1; i-- {
		parent, child := chain[i], chain[i-1]
		pv, _ := g.Vertex(parent)
		cv, _ := g.Vertex(child)
		opf := view.OPF(pv)
		if opf == nil {
			return 0, fmt.Errorf("algebra: chain object %s has no OPF", parent)
		}
		slot, _ := g.Slot(pv, cv)
		cond, norm, ok := opf.ConditionAt(func(e int) bool { return view.Has(pv, e, slot) })
		if !ok {
			sw.lap(phaseUpdate)
			return 0, fmt.Errorf("%w: edge %s → %s has zero probability", ErrZeroProbability, parent, child)
		}
		out.SetOPF(parent, cond)
		total *= norm
	}
	if extra != nil {
		norm, err := extra(o)
		if err != nil {
			sw.lap(phaseUpdate)
			return 0, err
		}
		total *= norm
	}
	sw.lap(phaseUpdate)
	return total, nil
}

// rootChain locates o under p in O(depth) with pathexpr.RootChain and
// returns the chain o … p.Root, or an ErrZeroProbability error when o ∉ p.
// An object with several parents means the caller's tree promise is
// broken; which error that yields is then decided by evaluating p, as the
// chain alone cannot.
func rootChain(g *graph.Graph, p pathexpr.Path, o model.ObjectID) ([]model.ObjectID, error) {
	chain, ok := pathexpr.RootChain(make([]model.ObjectID, 0, p.Len()+1), g, p, o)
	if chain == nil || !ok && !p.Matches(g, o) {
		return nil, fmt.Errorf("%w: %s does not satisfy %s", ErrZeroProbability, o, p)
	}
	if !ok {
		shared := chain[len(chain)-1]
		return nil, fmt.Errorf("algebra: object %s has %d parents; chain conditioning needs a tree", shared, len(g.Parents(shared)))
	}
	return chain, nil
}
