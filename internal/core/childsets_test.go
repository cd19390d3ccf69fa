package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/query"
	"pxml/internal/sets"
)

// checkView holds pi's bitset view to its OPFs: for every object, the view
// hands out the OPF pi has, with as many entries; in entry i's words, bit s
// is set exactly when the set contains the s-th child of the object's row,
// and no bit past the row is set. Each row is read three times through
// Each: the read that keeps nothing, the one that keeps the row, and one of
// the kept row, where Has must agree.
func checkView(t *testing.T, pi *core.ProbInstance) *core.ChildSets {
	t.Helper()
	view := pi.ChildSets()
	g := pi.WeakInstance.Graph()
	for _, o := range pi.Objects() {
		v, _ := g.Vertex(o)
		opf := pi.OPF(o)
		if view.OPF(v) != opf {
			t.Fatalf("%s: the view holds another OPF", o)
		}
		if opf == nil {
			continue
		}
		row := g.ChildNames(v)
		es := opf.Entries()
		for read := 1; read <= 3; read++ {
			i := 0
			view.Each(v, func(bits []uint64, p float64) {
				if i >= len(es) || p != es[i].Prob {
					t.Fatalf("%s entry %d: probability %v out of step with the OPF", o, i, p)
				}
				if want := (len(row) + 63) / 64; len(bits) != want {
					t.Fatalf("%s entry %d: %d words for a row of %d", o, i, len(bits), len(row))
				}
				for s := 0; s < 64*len(bits); s++ {
					got := bits[s/64]>>(s%64)&1 != 0
					want := s < len(row) && es[i].Set.Contains(row[s])
					if got != want || read == 3 && got != (s < len(row) && view.Has(v, i, int32(s))) {
						t.Fatalf("%s entry %d (%s), read %d: bit %d is %v, want %v", o, i, es[i].Set, read, s, got, want)
					}
				}
				i++
			})
			if i != len(es) {
				t.Fatalf("%s: the view has %d entries, the OPF %d", o, i, len(es))
			}
		}
	}
	return view
}

// rowOf returns an instance whose root r has n potential children, the
// even ones under label a and the odd ones under b, so the row (in id
// order) interleaves the labels, and an OPF of random sets of them,
// including ∅ and the whole row.
func rowOf(t *testing.T, n int, r *rand.Rand) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance("r")
	var a, b, all []string
	for i := 0; i < n; i++ {
		c := fmt.Sprintf("c%03d", i)
		all = append(all, c)
		if i%2 == 0 {
			a = append(a, c)
		} else {
			b = append(b, c)
		}
	}
	pi.SetLCh("r", "a", a...)
	if len(b) > 0 {
		pi.SetLCh("r", "b", b...)
	}
	w := prob.NewOPF()
	w.Put(nil, 0.1)
	w.Put(sets.NewSet(all...), 0.2)
	for k := 0; k < 6; k++ {
		var c []string
		for _, id := range all {
			if r.Intn(3) == 0 {
				c = append(c, id)
			}
		}
		w.Add(sets.NewSet(c...), 0.7/6)
	}
	pi.SetOPF("r", w)
	if err := pi.ValidateLite(); err != nil {
		t.Fatal(err)
	}
	return pi
}

// TestChildSetsRows: rows of 1, 64, 65 and 80 children — one word, a full
// word, one bit into the second and a wider second — and the Figure 2
// instance and generated trees with their many small rows.
func TestChildSetsRows(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 64, 65, 80} {
		t.Run(fmt.Sprintf("row%d", n), func(t *testing.T) {
			checkView(t, rowOf(t, n, r))
		})
	}
	checkView(t, fixtures.Figure2())
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		in, err := gen.Generate(gen.Config{Depth: 3, Branch: 4, Labeling: lab, LeafDomainSize: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		checkView(t, in.PI)
	}
}

// TestChildSetsFresh: the view is built once per version and never
// outlives what it was read from. A second call returns the same view; a
// σ-style overlay gets its own, and an OPF assigned through it shows in
// the overlay's view and not in the base's; SetOPF and SetLCh after first
// use each leave the next call a fresh view that reads the change.
func TestChildSetsFresh(t *testing.T) {
	pi := rowOf(t, 70, rand.New(rand.NewSource(2)))
	first := checkView(t, pi)
	if pi.ChildSets() != first {
		t.Fatal("a second call built the view again")
	}

	ov := pi.Overlay()
	if checkView(t, ov) == first {
		t.Fatal("the overlay reads its base's view")
	}
	w := prob.NewOPF()
	w.Put(sets.NewSet("c069"), 1)
	ov.SetOPF("r", w)
	if checkView(t, ov).OPF(0) != w {
		t.Fatal("the overlay's view misses its SetOPF")
	}
	if pi.ChildSets() != first {
		t.Fatal("the overlay's SetOPF dropped its base's view")
	}

	pi.SetOPF("r", w)
	after := checkView(t, pi)
	if after == first || after.OPF(0) != w {
		t.Fatal("SetOPF after first use kept the old view")
	}
	pi.SetLCh("r", "a", "c000", "c002", "extra")
	if checkView(t, pi) == after {
		t.Fatal("SetLCh after first use kept the old view")
	}
}

// TestChildSetsConcurrentFirstUse: readers of a published instance may all
// ask for the view at once, and all read one row at once — its first read,
// which keeps nothing, its second, which keeps it, and later ones racing.
// They all get one view and the same bits on every read (run under -race).
func TestChildSetsConcurrentFirstUse(t *testing.T) {
	pi := rowOf(t, 80, rand.New(rand.NewSource(3)))
	const readers, reads = 8, 3
	views := make([]*core.ChildSets, readers)
	got := make([][]uint64, readers*reads)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = pi.ChildSets()
			for r := range reads {
				views[i].Each(0, func(bits []uint64, _ float64) {
					got[i*reads+r] = append(got[i*reads+r], bits...)
				})
			}
		}()
	}
	wg.Wait()
	if slices.ContainsFunc(views, func(v *core.ChildSets) bool { return v != views[0] }) {
		t.Fatal("concurrent first uses built different views")
	}
	for i, bits := range got {
		if !slices.Equal(bits, got[0]) {
			t.Fatalf("reader %d, read %d: bits differ from reader 0's first read", i/reads, i%reads)
		}
	}
	checkView(t, pi)
}

// BenchmarkChildSets is the most a version's readers pay for its view
// between them: every row of the Section 7.1 trees of 341, 1 365 and 5 461
// objects (branching 4), whose graph is already built, read twice, the
// second time kept. A query pays only for the rows of the objects it
// visits (BenchmarkExistsQueryCold, BenchmarkAncestorProjectCold).
func BenchmarkChildSets(b *testing.B) {
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		for _, depth := range []int{4, 5, 6} {
			in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: lab, LeafDomainSize: 2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			in.PI.IsTree()
			b.Run(fmt.Sprintf("%s/objects%d", lab, in.PI.NumObjects()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.RebuildChildSets(in.PI)
				}
			})
		}
	}
}

// TestChildSetsColdQueryReadsPlanRows: the view of a new version costs a
// query only the rows of the objects it visits, each after the governor
// step charged for it, and a version queried once keeps no row. On a fresh
// 5 461-object tree an EXISTS over a step budget of 1 is refused having
// read no row, a cancelled one within one quantum of polls (64); one that
// completes reads the rows of its plan's objects above the matched level
// and no others, keeping none, and a second one keeps exactly those.
func TestChildSetsColdQueryReadsPlanRows(t *testing.T) {
	fresh := func() (*core.ProbInstance, pathexpr.Path) {
		in, err := gen.Generate(gen.Config{Depth: 6, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		in.PI.IsTree() // the graph and verdict, which a stored version has
		p, ok := in.RandomQuery(rand.New(rand.NewSource(1)))
		if !ok {
			t.Fatal("no satisfiable query")
		}
		return in.PI, p
	}
	withBudget := func(ctx context.Context, b govern.Budget) context.Context {
		return govern.With(ctx, govern.New(ctx, b))
	}

	pi, p := fresh()
	if _, err := query.ExistsQuery(withBudget(context.Background(), govern.Budget{MaxSteps: 1}), pi, p); !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("EXISTS over a budget of 1 step: %v", err)
	}
	if read, _ := core.RowsRead(pi); read != 0 {
		t.Fatalf("a refused EXISTS read %d rows", read)
	}

	pi, p = fresh()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := query.ExistsQuery(withBudget(ctx, govern.Budget{}), pi, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled EXISTS: %v", err)
	}
	if read, _ := core.RowsRead(pi); read > 64 {
		t.Fatalf("a cancelled EXISTS read %d rows, more than one quantum", read)
	}

	pi, p = fresh()
	first, err := query.ExistsQuery(context.Background(), pi, p)
	if err != nil {
		t.Fatal(err)
	}
	plan := pathexpr.NewPlan(pi.WeakInstance.Graph(), p, nil)
	above, _ := plan.Level(p.Len())
	withOPF := 0
	for _, o := range pi.Objects() {
		if pi.OPF(o) != nil {
			withOPF++
		}
	}
	if read, kept := core.RowsRead(pi); read != above || kept != 0 || read >= withOPF {
		t.Fatalf("EXISTS read %d rows and kept %d; its plan has %d objects above the matched level, the instance %d OPFs", read, kept, above, withOPF)
	}
	second, err := query.ExistsQuery(context.Background(), pi, p)
	if err != nil {
		t.Fatal(err)
	}
	if read, kept := core.RowsRead(pi); read != above || kept != above {
		t.Fatalf("a second EXISTS left %d rows read and %d kept, want %d and %d", read, kept, above, above)
	}
	if second != first {
		t.Fatalf("the kept rows answer %v, the first reads %v", second, first)
	}
}
