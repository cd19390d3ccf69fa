package algebra

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// selectByCopy is selection as this package computed it before results
// shared their input: deep-copy the instance, locate the object by
// evaluating the whole path over the graph (pathexpr.NewPlan), rewrite the
// copy in place. It is the reference Select is compared against bit for bit.
func selectByCopy(pi *core.ProbInstance, cond Condition) (*core.ProbInstance, float64, error) {
	out := pi.Clone()
	g := pi.Graph()
	// chainOf returns root … o when o ∈ p.
	chainOf := func(p pathexpr.Path, o model.ObjectID) ([]model.ObjectID, error) {
		if pathexpr.NewPlan(g, p, map[model.ObjectID]bool{o: true}).IsEmpty() {
			return nil, ErrZeroProbability
		}
		chain := []model.ObjectID{o}
		for cur := o; cur != pi.Root(); {
			cur = g.Parents(cur)[0]
			chain = append([]model.ObjectID{cur}, chain...)
		}
		if len(chain) != p.Len()+1 {
			return nil, ErrZeroProbability // p does not start at the root
		}
		return chain, nil
	}
	contain := func(chain []model.ObjectID) (float64, error) {
		total := 1.0
		for i := 0; i+1 < len(chain); i++ {
			w, norm, ok := pi.OPF(chain[i]).ConditionContains(chain[i+1])
			if !ok {
				return 0, ErrZeroProbability
			}
			out.SetOPF(chain[i], w)
			total *= norm
		}
		return total, nil
	}
	switch c := cond.(type) {
	case ObjectCondition:
		chain, err := chainOf(c.Path, c.Object)
		if err != nil {
			return nil, 0, err
		}
		p, err := contain(chain)
		return out, p, err
	case CardCondition:
		chain, err := chainOf(c.Path, c.Object)
		if err != nil {
			return nil, 0, err
		}
		p, err := contain(chain)
		if err != nil {
			return nil, 0, err
		}
		opf := pi.OPF(c.Object)
		if opf == nil {
			if c.Range.Contains(0) {
				return out, p, nil
			}
			return nil, 0, ErrZeroProbability
		}
		lch := pi.LCh(c.Object, c.Label)
		w, norm, ok := opf.Condition(func(s sets.Set) bool { return c.Range.Contains(s.Intersect(lch).Len()) })
		if !ok {
			return nil, 0, ErrZeroProbability
		}
		out.SetOPF(c.Object, w)
		return out, p * norm, nil
	case ValueCondition:
		var leaves []model.ObjectID
		for _, o := range c.Path.Targets(g) {
			if v := pi.VPF(o); v != nil && v.Prob(c.Value) > 0 {
				leaves = append(leaves, o)
			}
		}
		if len(leaves) == 0 {
			return nil, 0, ErrZeroProbability
		}
		if len(leaves) > 1 {
			return nil, 0, ErrNotRepresentable
		}
		chain, err := chainOf(c.Path, leaves[0])
		if err != nil {
			return nil, 0, err
		}
		p, err := contain(chain)
		if err != nil {
			return nil, 0, err
		}
		vp := pi.VPF(leaves[0]).Prob(c.Value)
		out.SetVPF(leaves[0], prob.PointMass(c.Value))
		return out, p * vp, nil
	case Conjunction:
		required := map[model.ObjectID][]model.ObjectID{}
		for _, sub := range c.Conds {
			oc := sub.(ObjectCondition)
			chain, err := chainOf(oc.Path, oc.Object)
			if err != nil {
				return nil, 0, err
			}
			for i := 0; i+1 < len(chain); i++ {
				required[chain[i]] = append(required[chain[i]], chain[i+1])
			}
		}
		parents := make([]model.ObjectID, 0, len(required))
		for o := range required {
			parents = append(parents, o)
		}
		sort.Strings(parents)
		total := 1.0
		for _, o := range parents {
			need := sets.NewSet(required[o]...)
			w, norm, ok := pi.OPF(o).Condition(func(s sets.Set) bool { return need.SubsetOf(s) })
			if !ok {
				return nil, 0, ErrZeroProbability
			}
			out.SetOPF(o, w)
			total *= norm
		}
		return out, total, nil
	}
	return nil, 0, fmt.Errorf("selectByCopy: unsupported %T", cond)
}

// errClass maps an error to the sentinel callers can test for.
func errClass(err error) error {
	for _, s := range []error{ErrZeroProbability, ErrNotRepresentable, ErrNotTree} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

func genTree(t testing.TB, depth, branch int, lab gen.Labeling, seed int64) *gen.Instance {
	t.Helper()
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: branch, Labeling: lab, LeafDomainSize: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomConditions draws one condition of each of the four kinds, plus an
// object condition that is usually unsatisfiable.
func randomConditions(in *gen.Instance, r *rand.Rand) map[string]Condition {
	pi := in.PI
	conds := map[string]Condition{}
	p, o, ok := in.RandomSelection(r)
	if !ok {
		return conds
	}
	conds["object"] = ObjectCondition{Path: p, Object: o}
	objs := pi.Objects()
	conds["object-miss"] = ObjectCondition{Path: p, Object: objs[r.Intn(len(objs))]}
	conds["value"] = ValueCondition{Path: p, Value: "w" + fmt.Sprint(r.Intn(2))}
	if p2, o2, ok := in.RandomSelection(r); ok {
		conds["conjunction"] = Conjunction{Conds: []Condition{ObjectCondition{Path: p, Object: o}, ObjectCondition{Path: p2, Object: o2}}}
	}
	// Cardinality: an inner object on o's chain and one of its labels.
	inner := pathexpr.Path{Root: p.Root, Labels: p.Labels[:r.Intn(p.Len())]}
	ts := inner.Targets(pi.Graph())
	io := ts[r.Intn(len(ts))]
	lo := r.Intn(2)
	conds["card"] = CardCondition{Path: inner, Object: io, Label: pi.Labels(io)[0], Range: sets.Interval{Min: lo, Max: lo + r.Intn(2)}}
	return conds
}

// TestSelectEqualsCopyThenCondition: on random trees, for all four
// condition kinds, the sharing Select gives bit for bit what deep-copying
// and conditioning the copy gives — same instance under core.Equal with
// zero tolerance, same binary encoding, same probability, same error class —
// and, where the instance is small enough to enumerate, the Definition 5.6
// global semantics.
func TestSelectEqualsCopyThenCondition(t *testing.T) {
	succeeded := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
			for _, shape := range [][2]int{{2, 2}, {3, 3}} {
				in := genTree(t, shape[0], shape[1], lab, seed)
				before := codec.AppendBinary(nil, in.PI)
				r := rand.New(rand.NewSource(seed))
				for kind, cond := range randomConditions(in, r) {
					got, pGot, err := Select(in.PI, cond)
					want, pWant, wantErr := selectByCopy(in.PI, cond)
					if errClass(err) != errClass(wantErr) {
						t.Fatalf("seed %d %s %s: err = %v, reference err = %v", seed, lab, cond, err, wantErr)
					}
					if !bytes.Equal(codec.AppendBinary(nil, in.PI), before) {
						t.Fatalf("seed %d %s: Select(%s) changed its input", seed, lab, cond)
					}
					if err != nil {
						continue
					}
					succeeded[kind]++
					if math.Float64bits(pGot) != math.Float64bits(pWant) {
						t.Errorf("seed %d %s %s: P = %v, reference %v", seed, lab, cond, pGot, pWant)
					}
					if !core.Equal(got, want, 0) {
						t.Errorf("seed %d %s %s: result differs from copy-then-condition", seed, lab, cond)
					}
					if !bytes.Equal(codec.AppendBinary(nil, got), codec.AppendBinary(nil, want)) {
						t.Errorf("seed %d %s %s: binary encoding differs from copy-then-condition", seed, lab, cond)
					}
					if shape == [2]int{2, 2} {
						checkSelectionAgainstOracle(t, in.PI, cond)
					}
				}
			}
		}
	}
	for _, kind := range []string{"object", "value", "card", "conjunction"} {
		if succeeded[kind] < 10 {
			t.Errorf("only %d successful %s selections: the comparison is close to vacuous", succeeded[kind], kind)
		}
	}
}

// TestSelectOfSelectOfSelect: an overlay of an overlay of an overlay is
// still exactly what three copy-then-condition steps produce.
func TestSelectOfSelectOfSelect(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		in := genTree(t, 3, 3, gen.FR, seed)
		r := rand.New(rand.NewSource(seed))
		got, want := in.PI, in.PI
		steps := 0
		for steps < 3 {
			p, o, ok := in.RandomSelection(r)
			if !ok {
				t.Fatal("no selection")
			}
			cond := ObjectCondition{Path: p, Object: o}
			g, pg, err := Select(got, cond)
			w, pw, werr := selectByCopy(want, cond)
			if errClass(err) != errClass(werr) {
				t.Fatalf("seed %d step %d: err = %v, reference %v", seed, steps, err, werr)
			}
			if err != nil {
				continue // contradicts an earlier step; draw again
			}
			if math.Float64bits(pg) != math.Float64bits(pw) {
				t.Errorf("seed %d step %d: P = %v, reference %v", seed, steps, pg, pw)
			}
			got, want = g, w
			steps++
		}
		if !core.Equal(got, want, 0) || !bytes.Equal(codec.AppendBinary(nil, got), codec.AppendBinary(nil, want)) {
			t.Errorf("seed %d: σσσ differs from three copy-then-condition steps", seed)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("seed %d: σσσ invalid: %v", seed, err)
		}
	}
}

// TestSelectResultDoesNotAliasInput: every mutator applied to a selection
// result leaves the input byte-identical to a Clone taken beforehand, and
// mutating the input afterwards leaves the result unchanged.
func TestSelectResultDoesNotAliasInput(t *testing.T) {
	// Depth 2, branch 2: n0 → n1, n2; n1 → n3, n4; n2 → n5, n6. The
	// selection conditions the chain n0, n1; n2 and n5 lie off it.
	mutators := map[string]func(pi *core.ProbInstance) error{
		"SetOPF on chain": func(pi *core.ProbInstance) error { pi.SetOPF("n0", pi.OPF("n2")); return nil },
		"SetOPF off chain": func(pi *core.ProbInstance) error {
			w, _, _ := pi.OPF("n2").ConditionContains("n5")
			pi.SetOPF("n2", w)
			return nil
		},
		"SetVPF":          func(pi *core.ProbInstance) error { pi.SetVPF("n5", prob.PointMass("w1")); return nil },
		"AddObject":       func(pi *core.ProbInstance) error { pi.AddObject("island"); return nil },
		"SetLCh":          func(pi *core.ProbInstance) error { pi.SetLCh("n5", "below", "n7"); return nil },
		"SetLCh remove":   func(pi *core.ProbInstance) error { pi.SetLCh("n2", pi.Labels("n2")[0]); return nil },
		"SetCard":         func(pi *core.ProbInstance) error { pi.SetCard("n2", pi.Labels("n2")[0], 1, 1); return nil },
		"RegisterType":    func(pi *core.ProbInstance) error { return pi.RegisterType(model.NewType("fresh-type", "x")) },
		"SetLeafType":     func(pi *core.ProbInstance) error { return pi.SetLeafType("island2", "leaftype") },
		"SetDefaultValue": func(pi *core.ProbInstance) error { return pi.SetDefaultValue("n5", "w0") },
	}
	for name, mutate := range mutators {
		t.Run(name, func(t *testing.T) {
			in := genTree(t, 2, 2, gen.SL, 3)
			pi := in.PI
			p := pathexpr.Path{Root: "n0", Labels: []model.Label{pi.Labels("n0")[0], pi.Labels("n1")[0]}}
			before := codec.AppendBinary(nil, pi.Clone())

			out, _, err := Select(pi, ObjectCondition{Path: p, Object: "n3"})
			if err != nil {
				t.Fatal(err)
			}
			unmutated := codec.AppendBinary(nil, out)
			if err := mutate(out); err != nil {
				t.Fatal(err)
			}
			mutated := codec.AppendBinary(nil, out)
			if bytes.Equal(mutated, unmutated) {
				t.Fatal("mutator had no visible effect on the result")
			}
			if !bytes.Equal(codec.AppendBinary(nil, pi), before) {
				t.Error("mutating the result changed the input")
			}

			out2, _, err := Select(pi, ObjectCondition{Path: p, Object: "n3"})
			if err != nil {
				t.Fatal(err)
			}
			if err := mutate(pi); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(codec.AppendBinary(nil, out), mutated) || !bytes.Equal(codec.AppendBinary(nil, out2), unmutated) {
				t.Error("mutating the input afterwards changed a result")
			}
		})
	}
}

// TestOperatorsShareUnchangedLocalFunctions: what an operator keeps, it
// keeps by pointer.
func TestOperatorsShareUnchangedLocalFunctions(t *testing.T) {
	pi := treeBib(t)
	sel, _, err := Select(pi, ObjectCondition{pathexpr.MustParse("R.book"), "B1"})
	if err != nil {
		t.Fatal(err)
	}
	if sel.OPF("B2") != pi.OPF("B2") || sel.VPF("T1") != pi.VPF("T1") || sel.OPF("R") == pi.OPF("R") {
		t.Error("Select: off-chain functions not shared, or the chain's not replaced")
	}
	if sel.Graph() != pi.Graph() {
		t.Error("Select: result rebuilt the weak instance graph")
	}
	anc, err := AncestorProject(pi, pathexpr.MustParse("R.book.title"))
	if err != nil {
		t.Fatal(err)
	}
	if anc.VPF("T1") == nil || anc.VPF("T1") != pi.VPF("T1") {
		t.Error("AncestorProject: matched leaf's VPF not shared")
	}
	desc, err := DescendantProject(pi, pathexpr.MustParse("R.book"))
	if err != nil {
		t.Fatal(err)
	}
	if desc.OPF("A1") != pi.OPF("A1") || desc.VPF("T1") != pi.VPF("T1") {
		t.Error("DescendantProject: subtree functions not shared")
	}
	prod, _, err := CartesianProduct(pi, bareRoot(core.NewProbInstance("S")), "X")
	if err != nil {
		t.Fatal(err)
	}
	if prod.OPF("B1") != pi.OPF("B1") || prod.VPF("T1") != pi.VPF("T1") {
		t.Error("CartesianProduct: operand functions not shared")
	}
}

// TestRootChainMatchesPathSemantics: the O(depth) locate agrees with
// evaluating the path over the whole graph, for every object and for
// matching, wrong-label, wrong-length, wildcard, unknown-object and
// non-root paths.
func TestRootChainMatchesPathSemantics(t *testing.T) {
	check := func(pi *core.ProbInstance, p pathexpr.Path, o model.ObjectID) {
		t.Helper()
		g := pi.Graph()
		chain, err := rootChain(g, p, o)
		if want := p.Matches(g, o); (err == nil) != want {
			t.Fatalf("rootChain(%s, %s): err = %v, but p.Matches = %v", p, o, err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrZeroProbability) {
				t.Fatalf("rootChain(%s, %s): err = %v, want ErrZeroProbability", p, o, err)
			}
			return
		}
		if len(chain) != p.Len()+1 || chain[0] != o || chain[len(chain)-1] != p.Root {
			t.Fatalf("rootChain(%s, %s) = %v", p, o, chain)
		}
		for i := 0; i+1 < len(chain); i++ {
			if !slices.Contains(g.Children(chain[i+1]), chain[i]) {
				t.Fatalf("rootChain(%s, %s) = %v: %s is not the parent of %s", p, o, chain, chain[i+1], chain[i])
			}
		}
	}
	pi := treeBib(t)
	for _, ps := range []string{
		"R", "R.book", "R.book.author", "R.book.author.institution", "R.book.title", // matching
		"R.author", "R.book.institution", "R.title.author", // wrong label
		"R.book.author.institution.x", "R.book.book", // wrong length
		"R.*", "R.*.author", "R.book.*", "R.*.*.*", "*.book", // wildcard
		"B1", "B1.author", "B1.author.institution", "A1.institution", "Q.book", // not from the root
	} {
		p := pathexpr.MustParse(ps)
		for _, o := range append(pi.Objects(), "nosuch", "") {
			check(pi, p, o)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		in := genTree(t, 3, 2, gen.FR, seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			p, ok := in.RandomQuery(r)
			if !ok {
				continue
			}
			if i%3 == 0 {
				p.Labels[r.Intn(p.Len())] = pathexpr.Wildcard
			}
			if i%5 == 0 {
				p.Labels = p.Labels[:r.Intn(p.Len())]
			}
			for _, o := range in.PI.Objects() {
				check(in.PI, p, o)
			}
		}
	}
	// A selection through a path that matches but does not start at the
	// root is refused, as before.
	if _, _, err := Select(pi, ObjectCondition{pathexpr.MustParse("B1.author"), "A1"}); !errors.Is(err, ErrZeroProbability) {
		t.Errorf("non-root path: err = %v, want ErrZeroProbability", err)
	}
}

// TestProbabilitiesBitReproducible: repeated evaluation gives the same
// bits. Every sum behind an answer walks a canonical order, never a map's.
func TestProbabilitiesBitReproducible(t *testing.T) {
	in := genTree(t, 3, 4, gen.SL, 11)
	r := rand.New(rand.NewSource(11))
	p, o, _ := in.RandomSelection(r)
	p2, o2, _ := in.RandomSelection(r)
	single := ObjectCondition{Path: p, Object: o}
	conj := Conjunction{Conds: []Condition{single, ObjectCondition{Path: p2, Object: o2}}}

	rootBits := func(pi *core.ProbInstance) []uint64 {
		var bits []uint64
		pi.OPF(pi.Root()).Each(func(_ sets.Set, pr float64) { bits = append(bits, math.Float64bits(pr)) })
		return bits
	}
	eval := func() []uint64 {
		s1, p1, err := Select(in.PI, single)
		if err != nil {
			t.Fatal(err)
		}
		s2, pc, err := Select(in.PI, conj)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := AncestorProject(in.PI, p)
		if err != nil {
			t.Fatal(err)
		}
		bits := []uint64{math.Float64bits(p1), math.Float64bits(pc)}
		bits = append(bits, rootBits(s1)...)
		bits = append(bits, rootBits(s2)...)
		return append(bits, rootBits(proj)...)
	}
	first := eval()
	for i := 1; i < 200; i++ {
		if got := eval(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("repeat %d differs in the last bits:\n%v\n%v", i, got, first)
		}
	}
}
