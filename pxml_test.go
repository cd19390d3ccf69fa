package pxml_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"pxml"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// bibliography builds the running example of the package documentation —
// a tree-shaped variant of the paper's Figure 2 — through the public API.
func bibliography(t testing.TB) *pxml.ProbInstance {
	t.Helper()
	inst, err := pxml.NewBuilder("R").
		Type("title-type", "VQDB", "Lore").
		Type("institution-type", "Stanford", "UMD").
		Children("R", "book", "B1", "B2").
		Card("R", "book", 1, 2).
		OPF("R",
			pxml.Entry(0.3, "B1"),
			pxml.Entry(0.2, "B2"),
			pxml.Entry(0.5, "B1", "B2")).
		Children("B1", "author", "A1").
		Children("B1", "title", "T1").
		OPF("B1",
			pxml.Entry(0.1),
			pxml.Entry(0.3, "A1"),
			pxml.Entry(0.2, "T1"),
			pxml.Entry(0.4, "A1", "T1")).
		Children("B2", "author", "A2").
		Card("B2", "author", 1, 1).
		OPF("B2", pxml.Entry(1, "A2")).
		Children("A2", "institution", "I1").
		IndependentOPF("A2", map[string]float64{"I1": 0.75}).
		Leaf("T1", "title-type").
		VPF("T1", map[string]float64{"VQDB": 0.6, "Lore": 0.4}).
		LeafValue("I1", "institution-type", "UMD").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestBuilderBuildsValidInstance(t *testing.T) {
	inst := bibliography(t)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if !inst.IsTree() {
		t.Error("expected a tree")
	}
	st := inst.ComputeStats()
	if st.Objects != 7 {
		t.Errorf("objects = %d", st.Objects)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := pxml.NewBuilder("r").Children("r", "l").Build(); err == nil {
		t.Error("empty children accepted")
	}
	if _, err := pxml.NewBuilder("r").Leaf("x", "missing").Build(); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := pxml.NewBuilder("r").
		Children("r", "l", "x").
		OPF("r", pxml.Entry(0.5, "x")).Build(); err == nil {
		t.Error("non-normalized OPF accepted")
	}
	if _, err := pxml.NewBuilder("r").
		Children("r", "l", "x").
		IndependentOPF("r", map[string]float64{"x": 1.5}).Build(); err == nil {
		t.Error("invalid independent probability accepted")
	}
	if _, err := pxml.NewBuilder("r").
		Type("t", "a").
		LeafValue("x", "t", "b").Build(); err == nil {
		t.Error("out-of-domain leaf value accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	pxml.NewBuilder("r").Children("r", "l").MustBuild()
}

func TestEndToEndProjectionSelectionQuery(t *testing.T) {
	inst := bibliography(t)

	// Scenario 1 (Section 2): authors of all books, keeping probabilities.
	proj, err := pxml.AncestorProject(inst, pxml.MustParsePath("R.book.author"))
	if err != nil {
		t.Fatal(err)
	}
	if proj.HasObject("T1") || proj.HasObject("I1") {
		t.Error("projection kept titles/institutions")
	}

	// Scenario 2: condition on a book surely existing.
	sel, p, err := pxml.Select(inst, pxml.ObjectCondition{Path: pxml.MustParsePath("R.book"), Object: "B1"})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 0.8) {
		t.Errorf("P(B1) = %v", p)
	}
	if got := sel.OPF("R").ProbContains("B1"); !approx(got, 1) {
		t.Errorf("conditioned P(B1) = %v", got)
	}

	// Scenario 4: probability that a particular author exists.
	pq, err := pxml.PointQuery(inst, pxml.MustParsePath("R.book.author"), "A1")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pq, 0.8*0.7) { // P(B1)·P(A1|B1)
		t.Errorf("P(A1) = %v", pq)
	}
	// The Bayesian-network route agrees.
	pe, err := pxml.ProbExists(inst, "A1")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pe, pq) {
		t.Errorf("bayes %v vs ε %v", pe, pq)
	}
	pp, err := pxml.PathProb(inst, pxml.MustParsePath("R.book.author"), "A1")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pp, pq) {
		t.Errorf("PathProb %v vs ε %v", pp, pq)
	}
}

func TestEndToEndProduct(t *testing.T) {
	// Scenario 3: combine two probabilistic instances.
	a := bibliography(t)
	b, err := pxml.NewBuilder("R2").
		Children("R2", "book", "B9").
		IndependentOPF("R2", map[string]float64{"B9": 0.5}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	prod, renames, err := pxml.CartesianProduct(a, b, "LIB")
	if err != nil {
		t.Fatal(err)
	}
	if len(renames) != 0 {
		t.Errorf("renames = %v", renames)
	}
	if err := prod.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := pxml.ExistsQuery(prod, pxml.MustParsePath("LIB.book"))
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0.9 { // at least one book from either source almost surely
		t.Errorf("P(book) = %v", e)
	}
}

func TestEndToEndEnumerateAndGlobals(t *testing.T) {
	inst := bibliography(t)
	gi, err := pxml.Enumerate(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(gi.TotalMass(), 1) {
		t.Errorf("mass = %v", gi.TotalMass())
	}
	naive, err := pxml.AncestorProjectGlobal(inst, pxml.MustParsePath("R.book.author"), 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pxml.AncestorProject(inst, pxml.MustParsePath("R.book.author"))
	if err != nil {
		t.Fatal(err)
	}
	induced, err := pxml.Enumerate(fast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !induced.Equal(naive, 1e-9) {
		t.Error("public API projection diverges from global semantics")
	}
	// SelectGlobal agrees with Select.
	cond := pxml.ObjectCondition{Path: pxml.MustParsePath("R.book"), Object: "B2"}
	_, pFast, err := pxml.Select(inst, cond)
	if err != nil {
		t.Fatal(err)
	}
	_, pNaive, err := pxml.SelectGlobal(inst, cond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pFast, pNaive) {
		t.Errorf("fast %v vs naive %v", pFast, pNaive)
	}
}

func TestEndToEndCodecs(t *testing.T) {
	inst := bibliography(t)
	var buf bytes.Buffer
	if err := pxml.EncodeJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err := pxml.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(inst, back, 1e-12) {
		t.Error("JSON round trip changed instance")
	}
	buf.Reset()
	if err := pxml.EncodeText(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err = pxml.DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !pxml.Equal(inst, back, 1e-12) {
		t.Error("text round trip changed instance")
	}
}

func TestEndToEndWorkload(t *testing.T) {
	w, err := pxml.GenerateWorkload(pxml.GenConfig{Depth: 2, Branch: 2, Labeling: pxml.SL, Seed: 3, LeafDomainSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.PI.NumObjects() != 7 {
		t.Errorf("workload objects = %d", w.PI.NumObjects())
	}
}

func TestErrNotTreeSurfaces(t *testing.T) {
	// Build a DAG through the public API: shared child.
	dag := pxml.New("r")
	dag.SetLCh("r", "a", "x", "y")
	dag.SetLCh("x", "b", "s")
	dag.SetLCh("y", "b", "s") // s has two parents
	w := pxml.NewOPF()
	w.Put(pxml.NewSet("x", "y"), 1)
	dag.SetOPF("r", w)
	wx := pxml.NewOPF()
	wx.Put(pxml.NewSet("s"), 1)
	dag.SetOPF("x", wx)
	wy := pxml.NewOPF()
	wy.Put(pxml.NewSet("s"), 1)
	dag.SetOPF("y", wy)

	if _, err := pxml.AncestorProject(dag, pxml.MustParsePath("r.a.b")); !errors.Is(err, pxml.ErrNotTree) {
		t.Errorf("projection err = %v", err)
	}
	if _, err := pxml.ExistsQuery(dag, pxml.MustParsePath("r.a.b")); !errors.Is(err, pxml.ErrNotTree) {
		t.Errorf("exists err = %v", err)
	}
	if _, err := pxml.ValueExistsQuery(dag, pxml.MustParsePath("r.a.b"), "v"); !errors.Is(err, pxml.ErrNotTree) {
		t.Errorf("value exists err = %v", err)
	}
	if _, err := pxml.ValuePointQuery(dag, pxml.MustParsePath("r.a.b"), "s", "v"); !errors.Is(err, pxml.ErrNotTree) {
		t.Errorf("value point err = %v", err)
	}
	// The DAG-capable route still answers.
	p, err := pxml.PathProb(dag, pxml.MustParsePath("r.a.b"), "s")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 1) {
		t.Errorf("PathProb = %v", p)
	}
}

func TestConjunctionPublicAPI(t *testing.T) {
	inst := bibliography(t)
	cond := pxml.Conjunction{Conds: []pxml.Condition{
		pxml.ObjectCondition{Path: pxml.MustParsePath("R.book.author"), Object: "A1"},
		pxml.ObjectCondition{Path: pxml.MustParsePath("R.book.author"), Object: "A2"},
	}}
	out, p, err := pxml.Select(inst, cond)
	if err != nil {
		t.Fatal(err)
	}
	// Both books must exist with their authors: 0.5 · 0.7 · 1.
	if !approx(p, 0.5*0.7) {
		t.Errorf("P = %v, want 0.35", p)
	}
	if got := out.OPF("R").Prob(pxml.NewSet("B1")); got != 0 {
		t.Errorf("single-book set survived: %v", got)
	}
	_, pNaive, err := pxml.SelectGlobal(inst, cond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, pNaive) {
		t.Errorf("fast %v vs naive %v", p, pNaive)
	}
}

func TestExistenceMarginalsPublicAPI(t *testing.T) {
	inst := bibliography(t)
	marg, err := pxml.ExistenceMarginals(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(marg["R"], 1) || !approx(marg["A1"], 0.8*0.7) {
		t.Errorf("marginals = %v", marg)
	}
	// Agrees with the per-object point query.
	for _, o := range []string{"B1", "B2", "A1", "A2", "T1", "I1"} {
		pq, err := pxml.ProbExists(inst, o)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(marg[o], pq) {
			t.Errorf("marg(%s) = %v, ProbExists = %v", o, marg[o], pq)
		}
	}
}

func TestSymmetricOPFBuilder(t *testing.T) {
	inst, err := pxml.NewBuilder("scene").
		Children("scene", "object", "v1", "v2").
		SymmetricOPF("scene",
			[][]string{{"v1", "v2"}},
			pxml.SymEntry(0.2, 0),
			pxml.SymEntry(0.6, 1),
			pxml.SymEntry(0.2, 2)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	w := inst.OPF("scene")
	if !approx(w.Prob(pxml.NewSet("v1")), 0.3) || !approx(w.Prob(pxml.NewSet("v2")), 0.3) {
		t.Errorf("symmetric split = %v / %v", w.Prob(pxml.NewSet("v1")), w.Prob(pxml.NewSet("v2")))
	}
	// Builder surfaces symmetric-table errors.
	if _, err := pxml.NewBuilder("r").
		Children("r", "l", "x").
		SymmetricOPF("r", [][]string{{"x"}}, pxml.SymEntry(1, 5)).
		Build(); err == nil {
		t.Error("bad count accepted")
	}
}

func TestNewSymmetricOPFPublicAPI(t *testing.T) {
	w, err := pxml.NewSymmetricOPF([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]int{1}, 1); err != nil {
		t.Fatal(err)
	}
	e, err := w.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(e.Prob(pxml.NewSet("a")), 0.5) {
		t.Errorf("P({a}) = %v", e.Prob(pxml.NewSet("a")))
	}
}

func TestTopKAndSamplingPublicAPI(t *testing.T) {
	inst := bibliography(t)
	top, err := pxml.TopK(inst, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].P < top[1].P {
		t.Fatalf("top-k = %+v", top)
	}
	worlds, err := pxml.Enumerate(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(top[0].P, worlds.Worlds()[0].P) {
		t.Errorf("top-1 %v vs enumeration %v", top[0].P, worlds.Worlds()[0].P)
	}

	r := newDeterministicRand()
	s, err := pxml.Sample(inst, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Compatible(s); err != nil {
		t.Fatalf("sample incompatible: %v", err)
	}
	est, err := pxml.EstimateProb(inst, func(w *pxml.Instance) bool { return w.HasObject("B1") }, 5000, r)
	if err != nil {
		t.Fatal(err)
	}
	if est.P < 0.75 || est.P > 0.85 { // exact 0.8
		t.Errorf("estimate = %v", est)
	}
}

func TestIngestPublicAPI(t *testing.T) {
	s := pxml.NewInstance("r")
	if err := s.RegisterType(pxml.NewType("t", "x", "y")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge("r", "a", "l"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLeaf("a", "t", "x"); err != nil {
		t.Fatal(err)
	}
	pi, err := pxml.Ingest(s, pxml.IngestOptions{
		Confidence: func(string) float64 { return 0.25 },
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pxml.ProbExists(pi, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 0.25) {
		t.Errorf("P(a) = %v", p)
	}
}

func TestPathIndexPublicAPI(t *testing.T) {
	inst := bibliography(t)
	idx := pxml.NewPathIndex(inst)
	p := pxml.MustParsePath("R.book.author")
	got := pxml.TargetsIndexed(idx, p)
	if len(got) != 2 || got[0] != "A1" || got[1] != "A2" {
		t.Errorf("indexed targets = %v", got)
	}
}

// probDAG builds a small DAG with a probabilistic shared child and a
// valued leaf, for exercising the facade's network fallback.
func probDAG(t testing.TB) *pxml.ProbInstance {
	t.Helper()
	dag := pxml.New("r")
	if err := dag.RegisterType(pxml.NewType("vt", "u", "w")); err != nil {
		t.Fatal(err)
	}
	dag.SetLCh("r", "a", "x", "y")
	dag.SetLCh("x", "b", "s")
	dag.SetLCh("y", "b", "s") // s has two parents
	w := pxml.NewOPF()
	w.Put(pxml.NewSet("x"), 0.5)
	w.Put(pxml.NewSet("x", "y"), 0.5)
	dag.SetOPF("r", w)
	wx := pxml.NewOPF()
	wx.Put(pxml.NewSet(), 0.4)
	wx.Put(pxml.NewSet("s"), 0.6)
	dag.SetOPF("x", wx)
	wy := pxml.NewOPF()
	wy.Put(pxml.NewSet("s"), 1)
	dag.SetOPF("y", wy)
	if err := dag.SetLeafType("s", "vt"); err != nil {
		t.Fatal(err)
	}
	v := pxml.NewVPF()
	v.Put("u", 0.3)
	v.Put("w", 0.7)
	dag.SetVPF("s", v)
	return dag
}

func TestProbFacadeTree(t *testing.T) {
	pi := bibliography(t)
	p := pxml.MustParsePath("R.book.author")
	want, err := pxml.ExistsQuery(pi, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pxml.Prob(pi, p)
	if err != nil || !approx(got, want) {
		t.Errorf("Prob = %v, %v; want %v", got, err, want)
	}
	wantPt, err := pxml.PointQuery(pi, p, "A1")
	if err != nil {
		t.Fatal(err)
	}
	gotPt, err := pxml.ProbPoint(pi, p, "A1")
	if err != nil || !approx(gotPt, wantPt) {
		t.Errorf("ProbPoint = %v, %v; want %v", gotPt, err, wantPt)
	}
	tp := pxml.MustParsePath("R.book.title")
	wantV, err := pxml.ValuePointQuery(pi, tp, "T1", "Lore")
	if err != nil {
		t.Fatal(err)
	}
	gotV, err := pxml.ProbValue(pi, tp, "T1", "Lore")
	if err != nil || !approx(gotV, wantV) {
		t.Errorf("ProbValue = %v, %v; want %v", gotV, err, wantV)
	}
}

func TestProbFacadeDAGFallback(t *testing.T) {
	dag := probDAG(t)
	p := pxml.MustParsePath("r.a.b")
	// The explicit tree route refuses...
	if _, err := pxml.ExistsQuery(dag, p); !errors.Is(err, pxml.ErrNotTree) {
		t.Fatalf("tree route err = %v", err)
	}
	// ...but the facade falls back to the network route transparently.
	want, err := pxml.PathProb(dag, p, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := pxml.Prob(dag, p)
	if err != nil || !approx(got, want) {
		t.Errorf("Prob on DAG = %v, %v; want %v", got, err, want)
	}
	wantPt, err := pxml.PathProb(dag, p, "s")
	if err != nil {
		t.Fatal(err)
	}
	gotPt, err := pxml.ProbPoint(dag, p, "s")
	if err != nil || !approx(gotPt, wantPt) {
		t.Errorf("ProbPoint on DAG = %v, %v; want %v", gotPt, err, wantPt)
	}
	// ProbValue factors into P(s ∈ p) · VPF(s)(w) on the DAG route.
	gotV, err := pxml.ProbValue(dag, p, "s", "w")
	if err != nil || !approx(gotV, wantPt*0.7) {
		t.Errorf("ProbValue on DAG = %v, %v; want %v", gotV, err, wantPt*0.7)
	}
	// An unvalued object yields probability zero, not an error.
	if pr, err := pxml.ProbValue(dag, pxml.MustParsePath("r.a"), "x", "u"); err != nil || pr != 0 {
		t.Errorf("ProbValue on unvalued object = %v, %v", pr, err)
	}
}

func TestEnginePublicAPI(t *testing.T) {
	eng := pxml.NewEngine(bibliography(t), pxml.WithWorkers(2))
	ctx := context.Background()
	res, err := eng.Run(ctx, "PROB R.book.author = A1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pxml.PointQuery(eng.Instance(), pxml.MustParsePath("R.book.author"), "A1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob == nil || !approx(*res.Prob, want) {
		t.Errorf("engine %v vs the ε kernel %v", res.Prob, want)
	}
	if _, err := eng.Run(ctx, "PROB R.book.author = A1"); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m["queries"].(int64) != 2 || m["cache_hits"].(int64) == 0 {
		t.Errorf("engine metrics = %v", m)
	}
	batch := eng.RunBatch(ctx, []string{"STATS", "PROB EXISTS R.book"})
	for i, br := range batch {
		if br.Err != nil {
			t.Errorf("batch[%d]: %v", i, br.Err)
		}
	}
}
