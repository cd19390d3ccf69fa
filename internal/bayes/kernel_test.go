package bayes

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"pxml/internal/govern"
)

// The reference kernels decode every cell into a per-variable assignment
// and look operands up through At/Set — the shape the stride kernels
// replaced. They do the same arithmetic in the same order, so the
// comparison below is exact.

func refMultiply(a, b *Factor) *Factor {
	vars := append([]int(nil), a.vars...)
	card := append([]int(nil), a.card...)
	for i, v := range b.vars {
		if a.pos(v) < 0 {
			vars = append(vars, v)
			card = append(card, b.card[i])
		}
	}
	out := NewFactor(vars, card)
	project := func(assign []int, f *Factor) []int {
		sub := make([]int, len(f.vars))
		for i, v := range f.vars {
			sub[i] = assign[out.pos(v)]
		}
		return sub
	}
	out.EachAssignment(func(assign []int, _ float64) {
		out.Set(assign, a.At(project(assign, a))*b.At(project(assign, b)))
	})
	return out
}

// refDrop removes variable v from f: summed over its states when s < 0,
// restricted to state s otherwise.
func refDrop(f *Factor, v, s int) *Factor {
	pos := f.pos(v)
	if pos < 0 {
		return f.clone(nil)
	}
	out := NewFactor(
		append(append([]int(nil), f.vars[:pos]...), f.vars[pos+1:]...),
		append(append([]int(nil), f.card[:pos]...), f.card[pos+1:]...))
	f.EachAssignment(func(assign []int, val float64) {
		if s >= 0 && assign[pos] != s {
			return
		}
		rest := append(append([]int(nil), assign[:pos]...), assign[pos+1:]...)
		out.Set(rest, out.At(rest)+val)
	})
	return out
}

// randomFactor draws a factor over the given variables in a random order;
// variable v always has cardinality 1 + v%4, so cardinality 1 occurs too.
func randomFactor(r *rand.Rand, vars []int) *Factor {
	vars = append([]int(nil), vars...)
	r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	card := make([]int, len(vars))
	for i, v := range vars {
		card[i] = 1 + v%4
	}
	f := NewFactor(vars, card)
	for i := range f.vals {
		f.vals[i] = r.Float64()
	}
	return f
}

func sameFactor(t *testing.T, what string, got, want *Factor) {
	t.Helper()
	if !reflect.DeepEqual(got.vars, want.vars) && len(got.vars)+len(want.vars) > 0 {
		t.Fatalf("%s: vars %v, reference %v", what, got.vars, want.vars)
	}
	if !reflect.DeepEqual(got.vals, want.vals) {
		t.Fatalf("%s over %v: values differ from the reference\n got %v\nwant %v", what, got.vars, got.vals, want.vals)
	}
}

func TestStrideKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	pool := []int{1, 2, 3, 5, 6, 7, 9}
	subset := func() []int {
		var vs []int
		for _, v := range pool {
			if r.Intn(3) == 0 {
				vs = append(vs, v)
			}
		}
		return vs
	}
	pairs := [][2][]int{
		{{}, {}},                        // two scalars
		{{}, {1, 2, 3}},                 // scalar × table
		{{3, 2, 1}, {}},                 // table × scalar
		{{1, 2}, {5, 6}},                // disjoint
		{{1, 2, 3}, {1, 2, 3}},          // same set, permuted independently
		{{1, 2, 3, 5}, {2, 5}},          // b inside a
		{{2, 5}, {1, 2, 3, 5}},          // a inside b
		{{1, 2, 3, 6}, {3, 6, 7, 9}},    // partial overlap
		{{1, 2, 3, 5, 6, 7, 9}, {4, 8}}, // cardinality-1 variables on one side
	}
	for i := 0; i < 200; i++ {
		pairs = append(pairs, [2][]int{subset(), subset()})
	}
	for _, pr := range pairs {
		a, b := randomFactor(r, pr[0]), randomFactor(r, pr[1])
		prod := Multiply(a, b)
		sameFactor(t, "Multiply", prod, refMultiply(a, b))
		// The final multiply of the kept factors goes into a reused
		// scratch factor, which may be larger or smaller than the
		// product it receives.
		scratch := Factor{vars: make([]int, 1, 3), card: make([]int, 1, 3), vals: make([]float64, 7)}
		mulInto(&scratch, a, b)
		sameFactor(t, "mulInto", &scratch, prod)
		for _, v := range append(append([]int{}, prod.vars...), 100) {
			sameFactor(t, "SumOut", prod.SumOut(v), refDrop(prod, v, -1))
			if p := prod.pos(v); p >= 0 {
				s := r.Intn(prod.card[p])
				sameFactor(t, "Reduce", prod.Reduce(v, s), refDrop(prod, v, s))
			} else {
				sameFactor(t, "Reduce", prod.Reduce(v, 0), prod)
			}
		}
	}
}

// TestFusedBucketMatchesChain holds the one-pass bucket kernel to what it
// replaced: multiplying the bucket left to right (refMultiply, which
// mulInto equals) and summing the variable out of the product with
// SumOut. τ must have the chain's variables and bits, and the governor
// must be charged the chain's products in its order — the same steps and
// bytes, and the same refusal under a budget.
func TestFusedBucketMatchesChain(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	// Variable v has cardinality 1 + v%4: 0, 4 and 8 have one state.
	pool := []int{0, 1, 3, 4, 5, 6, 7, 8}
	type bucket struct {
		v   int
		fvs [][]int
	}
	buckets := []bucket{
		{2, [][]int{{2}}},                          // one factor, scalar τ
		{2, [][]int{{2}, {2}, {2}}},                // scalar τ from three
		{2, [][]int{{1, 2}, {2, 3}}},               // disjoint apart from v
		{2, [][]int{{1, 2, 3}, {3, 2, 1}}},         // the same variables
		{2, [][]int{{2, 5, 6}, {5, 6, 2}, {6, 2}}}, // shared, nested
		{4, [][]int{{4, 1}, {0, 4}, {4, 8}}},       // v has one state
		{3, [][]int{{1, 3}, {3, 5}, {3, 6}, {3, 7, 8}}},
	}
	for i := 0; i < 300; i++ {
		b := bucket{v: 2}
		for n := 1 + r.Intn(4); n > 0; n-- {
			vs := []int{2}
			for _, u := range pool {
				if r.Intn(3) == 0 {
					vs = append(vs, u)
				}
			}
			b.fvs = append(b.fvs, vs)
		}
		buckets = append(buckets, b)
	}
	w := new(workspace)
	e := &w.elimination
	e.mark, e.at = make([]int, 9), make([]int, 9)
	for bi, b := range buckets {
		var fs []*Factor
		for _, vs := range b.fvs {
			fs = append(fs, randomFactor(r, vs))
		}
		budget := govern.Budget{}
		if bi%3 == 2 {
			budget.MaxSteps = int64(r.Intn(400))
		}
		gChain := govern.New(context.Background(), budget)
		prod, errChain := fs[0], error(nil)
		for _, f := range fs[1:] {
			if errChain = chargeProduct(gChain, prod, f); errChain != nil {
				break
			}
			prod = refMultiply(prod, f)
		}
		gFused := govern.New(context.Background(), budget)
		e.ops = append(e.ops[:0], fs...)
		tau, err := e.fuse(gFused, &w.arena, b.v)
		sameOutcome(t, "fuse", err, errChain)
		if gFused.Steps() != gChain.Steps() || gFused.Bytes() != gChain.Bytes() {
			t.Fatalf("bucket %v: charged %d steps and %d bytes, the chain %d and %d",
				b.fvs, gFused.Steps(), gFused.Bytes(), gChain.Steps(), gChain.Bytes())
		}
		if err == nil {
			sameBits(t, "fuse", tau, prod.SumOut(b.v))
		}
		w.arena.reset()
	}
}

// TestEliminateAllMatchesBruteForce: the incremental elimination order
// and the bucket scratch reuse give the same joint as multiplying
// everything and summing out afterwards.
func TestEliminateAllMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := []int{0, 1, 2, 3, 5, 6, 7}
	for round := 0; round < 100; round++ {
		var factors []*Factor
		for n := 1 + r.Intn(6); n > 0; n-- {
			var vs []int
			for _, v := range pool {
				if r.Intn(3) == 0 {
					vs = append(vs, v)
				}
			}
			factors = append(factors, randomFactor(r, vs))
		}
		keep := map[int]bool{}
		for _, v := range pool {
			if r.Intn(4) == 0 {
				keep[v] = true
			}
		}
		got, err := EliminateAll(factors, keep)
		if err != nil {
			t.Fatal(err)
		}
		want := NewFactor(nil, nil)
		want.vals[0] = 1
		for _, f := range factors {
			want = refMultiply(want, f)
		}
		for _, v := range pool {
			if !keep[v] {
				want = refDrop(want, v, -1)
			}
		}
		if len(got.vals) != len(want.vals) {
			t.Fatalf("round %d: joint over %v, brute force over %v", round, got.vars, want.vars)
		}
		got.EachAssignment(func(assign []int, v float64) {
			ref := make([]int, len(want.vars))
			for i, wv := range want.vars {
				ref[i] = assign[got.pos(wv)]
			}
			if w := want.At(ref); !approx(v, w) {
				t.Fatalf("round %d: joint%v = %v, brute force %v", round, assign, v, w)
			}
		})
		// Inputs are only read.
		if again, _ := EliminateAll(factors, keep); !reflect.DeepEqual(again.vals, got.vals) {
			t.Fatalf("round %d: a second run over the same factors differs", round)
		}
	}
}
