package algebra

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// FuzzProjectDifferential holds Λ_p and σ, which read every OPF through the
// bitset view (DESIGN §36), to their references: Λ_p to refAncestorProject
// bit for bit, with every ℘' in the strict canonical order seal adopts it
// in unchecked (checkCanonical), σ to selectByCopy in probability bits and
// result. A case is
// a generated tree — SL or FR labeling, branching 2–8 — whose view is
// started before perturb rewrites some of its OPFs, queried three times on
// a full path (so every row it visits is read once without being kept,
// then kept, then read from what was kept), on the same with one step a
// wildcard and on its first step; or, when wide is set, a root whose row
// of 75–100 children spans two words, queried and selected through the
// second word.
func FuzzProjectDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), false, uint8(0))
	f.Add(int64(7), uint8(1), uint8(6), false, uint8(1))
	f.Add(int64(3), uint8(0), uint8(0), true, uint8(2))
	f.Add(int64(11), uint8(1), uint8(25), true, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, labeling, branch uint8, wide bool, wild uint8) {
		r := rand.New(rand.NewSource(seed))
		if wide {
			fuzzWide(t, r, 65+int(branch)%26, wild)
			return
		}
		lab := gen.SL
		if labeling%2 == 1 {
			lab = gen.FR
		}
		b, depth := 2+int(branch)%7, 2
		if b <= 4 {
			depth += int(uint64(seed) % 2)
		}
		in := genTree(t, depth, b, lab, seed)
		// Every row read twice is kept; perturb's SetOPFs must drop the
		// view with them.
		view := in.PI.ChildSets()
		for v := range int32(in.PI.NumObjects()) {
			for range 2 {
				view.Each(v, func([]uint64, float64) {})
			}
		}
		perturb(in.PI, r)
		p, ok := in.RandomQuery(r)
		if !ok {
			return
		}
		for range 3 {
			checkAgainstReference(t, in.PI, p)
		}
		checkAgainstReference(t, in.PI, withWildcard(p, int(wild)))
		checkAgainstReference(t, in.PI, pathexpr.Path{Root: p.Root, Labels: p.Labels[:1]})
		if p, o, ok := in.RandomSelection(r); ok {
			checkSelect(t, in.PI, ObjectCondition{Path: p, Object: o})
		}
	})
}

// withWildcard returns p with step at%len a wildcard.
func withWildcard(p pathexpr.Path, at int) pathexpr.Path {
	q := pathexpr.Path{Root: p.Root, Labels: slices.Clone(p.Labels)}
	q.Labels[at%len(q.Labels)] = pathexpr.Wildcard
	return q
}

// fuzzWide runs the differential on wideTree with n > 64 x-children, so
// r's row of n+10 children spans two words, and a few random entries of up to ten
// x-children and three y-children each.
func fuzzWide(t *testing.T, r *rand.Rand, n int, wild uint8) {
	pi := wideTree(t, n, func(xs, ys sets.Set) *prob.OPF {
		w := prob.NewOPF()
		for k := 1 + r.Intn(5); k > 0; k-- {
			var c []model.ObjectID
			for i := r.Intn(11); i > 0; i-- {
				c = append(c, xs[r.Intn(len(xs))])
			}
			for i := r.Intn(4); i > 0; i-- {
				c = append(c, ys[r.Intn(len(ys))])
			}
			w.Add(sets.NewSet(c...), float64(1+r.Intn(4)))
		}
		w.Put(xs, 0)
		if err := w.Normalize(); err != nil {
			t.Fatal(err)
		}
		return w
	})
	p := pathexpr.MustParse("r.x.z")
	for _, q := range []pathexpr.Path{p, withWildcard(p, int(wild)), pathexpr.MustParse("r.x"), pathexpr.MustParse("r.*")} {
		checkAgainstReference(t, pi, q)
	}
	i := 64 + r.Intn(n-64) // c_i is in r's second word
	checkSelect(t, pi, ObjectCondition{Path: p, Object: fmt.Sprintf("l%02d", i)})
	checkSelect(t, pi, ObjectCondition{Path: pathexpr.MustParse("r.x"), Object: fmt.Sprintf("c%02d", i)})
}

// checkSelect holds Select on (pi, cond) to selectByCopy: the same error
// class, or the same probability bits and results equal with no tolerance.
func checkSelect(t *testing.T, pi *core.ProbInstance, cond Condition) {
	t.Helper()
	got, pGot, err := Select(pi, cond)
	want, pWant, wantErr := selectByCopy(pi, cond)
	if errClass(err) != errClass(wantErr) {
		t.Fatalf("σ_%s: error %v, reference error %v", cond, err, wantErr)
	}
	if err != nil {
		return
	}
	if math.Float64bits(pGot) != math.Float64bits(pWant) {
		t.Fatalf("σ_%s: P = %v, reference %v", cond, pGot, pWant)
	}
	if !core.Equal(got, want, 0) {
		t.Fatalf("σ_%s differs from copy-then-condition", cond)
	}
}

// TestCanonicalMasks: for every k ≤ denseFanout the table lists all 2^k
// masks in the order the dense update sorted them by before it had the
// table, which is the order prob gives the child sets they stand for.
func TestCanonicalMasks(t *testing.T) {
	names := make([]model.ObjectID, denseFanout)
	for j := range names {
		names[j] = fmt.Sprintf("k%02d", j)
	}
	for k, table := range canonicalMasks() {
		sorted := make([]uint16, 1<<k)
		w := prob.NewOPF()
		for m := range sorted {
			sorted[m] = uint16(m)
			var c []model.ObjectID
			for rest := uint16(m); rest != 0; rest &= rest - 1 {
				c = append(c, names[bits.TrailingZeros16(rest)])
			}
			w.Put(sets.NewSet(c...), 1)
		}
		// The comparator the dense update sorted its masks with.
		slices.SortFunc(sorted, func(a, b uint16) int {
			if c := cmp.Compare(bits.OnesCount16(a), bits.OnesCount16(b)); c != 0 {
				return c
			}
			// The lowest kid in one set and not the other decides.
			return cmp.Compare(bits.Reverse16(b), bits.Reverse16(a))
		})
		if !slices.Equal(table, sorted) {
			t.Fatalf("k = %d: the table is not the comparator's order", k)
		}
		i := 0
		w.Each(func(c sets.Set, _ float64) {
			var m uint16
			for _, id := range c {
				m |= 1 << slices.Index(names, id)
			}
			if m != table[i] {
				t.Fatalf("k = %d: entry %d is %s, the table says %b", k, i, c, table[i])
			}
			i++
		})
	}
}
