package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pxml/internal/bayes"
	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/metrics"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/pxql"
	"pxml/internal/rescache"
	"pxml/internal/sets"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// treeBib builds the tree bibliography the pxql tests use.
func treeBib(t testing.TB) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance("R")
	if err := pi.RegisterType(model.NewType("title-type", "VQDB", "Lore")); err != nil {
		t.Fatal(err)
	}
	pi.SetLCh("R", "book", "B1", "B2")
	w := prob.NewOPF()
	w.Put(sets.NewSet("B1"), 0.3)
	w.Put(sets.NewSet("B2"), 0.2)
	w.Put(sets.NewSet("B1", "B2"), 0.5)
	pi.SetOPF("R", w)
	pi.SetLCh("B1", "author", "A1")
	pi.SetLCh("B1", "title", "T1")
	w1 := prob.NewOPF()
	w1.Put(sets.NewSet(), 0.1)
	w1.Put(sets.NewSet("A1"), 0.3)
	w1.Put(sets.NewSet("T1"), 0.2)
	w1.Put(sets.NewSet("A1", "T1"), 0.4)
	pi.SetOPF("B1", w1)
	pi.SetLCh("B2", "author", "A2")
	w2 := prob.NewOPF()
	w2.Put(sets.NewSet("A2"), 1)
	pi.SetOPF("B2", w2)
	if err := pi.SetLeafType("T1", "title-type"); err != nil {
		t.Fatal(err)
	}
	v := prob.NewVPF()
	v.Put("VQDB", 0.6)
	v.Put("Lore", 0.4)
	pi.SetVPF("T1", v)
	return pi
}

func TestProbValueFactorsOnDAG(t *testing.T) {
	pi := fixtures.Figure2VariedLeaves()
	eng := New(pi)
	ctx := context.Background()
	p := pathexpr.MustParse("R.book.title")
	// P(T1 ∈ R.book.title ∧ val(T1) = VQDB) should equal
	// P(T1 ∈ R.book.title) · VPF(T1)(VQDB).
	point, err := eng.ProbPoint(ctx, p, "T1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ProbValue(ctx, p, "T1", "VQDB")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, point*0.7) {
		t.Errorf("ProbValue = %v, want %v", got, point*0.7)
	}
	// Unvalued object → 0.
	if pr, err := eng.ProbValue(ctx, pathexpr.MustParse("R.book"), "B1", "x"); err != nil || pr != 0 {
		t.Errorf("ProbValue on non-leaf = %v, %v", pr, err)
	}
}

func TestEngineCaches(t *testing.T) {
	eng := New(fixtures.Figure2())
	n1, err := eng.Network()
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := eng.Network()
	if n1 != n2 {
		t.Error("network not cached")
	}
	if eng.Index() != eng.Index() {
		t.Error("index not cached")
	}
	m := eng.Metrics()
	if m["cache_hits"].(int64) == 0 || m["cache_misses"].(int64) == 0 {
		t.Errorf("cache counters not moving: %v", m)
	}
}

func TestEngineMetricsCount(t *testing.T) {
	eng := New(treeBib(t))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := eng.Run(ctx, "PROB R.book = B1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(ctx, "NOT A STATEMENT"); err == nil {
		t.Fatal("bad statement accepted")
	}
	m := eng.Metrics()
	if q := m["queries"].(int64); q != 6 {
		t.Errorf("queries = %d, want 6", q)
	}
	if e := m["errors"].(int64); e != 1 {
		t.Errorf("errors = %d, want 1", e)
	}
	lat := m["latency"].(metrics.TimerSnapshot)
	if lat.Count != 6 {
		t.Errorf("latency count = %d, want 6", lat.Count)
	}
}

// TestResultCacheHitsCountServedAnswers: result_cache_hits counts answers
// served from the cache, not calls that did not compute. A caller that
// joined another's evaluation and gave up, and one whose evaluation failed,
// count as no hit; the shape observer still sees both statements' shape.
func TestResultCacheHitsCountServedAnswers(t *testing.T) {
	cache := rescache.New(1 << 20)
	var mu sync.Mutex
	shapes := map[string]int{}
	eng := New(treeBib(t), WithResultCache(cache, "x\x00"), WithShapeObserver(func(shape string, _ time.Duration) {
		mu.Lock()
		shapes[shape]++
		mu.Unlock()
	}))
	const slow = "ESTIMATE 2000000000 EXISTS R.book"
	leaderCtx, stopLeader := context.WithCancel(context.Background())
	defer stopLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := eng.Run(leaderCtx, slow)
		leaderErr <- err
	}()
	for cache.Stats().Misses == 0 { // the leader's flight is registered
		time.Sleep(time.Millisecond)
	}
	waiterCtx, stopWaiter := context.WithCancel(context.Background())
	joined := &doneSpy{Context: waiterCtx, asked: make(chan struct{})}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := eng.Run(joined, slow)
		waiterErr <- err
	}()
	<-joined.asked // waiting on the leader's flight
	stopWaiter()
	if err := <-waiterErr; err != context.Canceled {
		t.Fatalf("waiter: %v, want context.Canceled", err)
	}
	stopLeader()
	if err := <-leaderErr; err == nil {
		t.Fatal("the cancelled leader answered")
	}
	m := eng.Metrics()
	if hits, misses := m["result_cache_hits"].(int64), m["result_cache_misses"].(int64); hits != 0 || misses != 1 {
		t.Errorf("result_cache_hits %d, misses %d; want 0 and 1", hits, misses)
	}
	if st := cache.Stats(); st.Hits != 0 {
		t.Errorf("cache hits %d, want 0", st.Hits)
	}
	mu.Lock()
	defer mu.Unlock()
	if shapes[pxql.ShapeEstimate] != 2 || len(shapes) != 1 {
		t.Errorf("observed shapes %v, want estimate twice", shapes)
	}
}

// doneSpy closes asked the first time its Done is asked for, which the
// result cache does only for a caller waiting on another's flight.
type doneSpy struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *doneSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

func TestEngineContextCancellation(t *testing.T) {
	eng := New(fixtures.Figure2())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, "PROB OBJECT A1"); err != context.Canceled {
		t.Errorf("Run on cancelled ctx: %v", err)
	}
	if _, err := eng.ProbPoint(ctx, pathexpr.MustParse("R.book"), "B1"); err != context.Canceled {
		t.Errorf("ProbPoint on cancelled ctx: %v", err)
	}
	if err := eng.Warm(ctx); err != context.Canceled {
		t.Errorf("Warm on cancelled ctx: %v", err)
	}
	deadline, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := eng.Run(deadline, "STATS"); err != context.DeadlineExceeded {
		t.Errorf("expired deadline: %v", err)
	}
}

func TestRunBatch(t *testing.T) {
	eng := New(treeBib(t), WithWorkers(2))
	stmts := []string{"PROB R.book = B1", "STATS", "BOGUS", "PROB EXISTS R.book.author"}
	out := eng.RunBatch(context.Background(), stmts)
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].Err != nil || out[0].Result.Prob == nil || !approx(*out[0].Result.Prob, 0.8) {
		t.Errorf("batch[0] = %+v", out[0])
	}
	if out[1].Err != nil || !strings.Contains(out[1].Result.Text, "objects=") {
		t.Errorf("batch[1] = %+v", out[1])
	}
	if out[2].Err == nil {
		t.Error("batch[2] should fail")
	}
	if out[3].Err != nil {
		t.Errorf("batch[3] = %v", out[3].Err)
	}
}

func TestEstimateSharded(t *testing.T) {
	pi := treeBib(t)
	eng := New(pi)
	ctx := context.Background()
	exact, err := eng.ProbExists(ctx, pathexpr.MustParse("R.book.author"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, "ESTIMATE 4000 EXISTS R.book.author")
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob == nil || math.Abs(*res.Prob-exact) > 0.05 {
		t.Errorf("sharded estimate %v too far from exact %v", res.Prob, exact)
	}
	// Determinism: the sharded seed sequence is fixed.
	res2, err := eng.Run(ctx, "ESTIMATE 4000 EXISTS R.book.author")
	if err != nil {
		t.Fatal(err)
	}
	if *res.Prob != *res2.Prob {
		t.Errorf("sharded estimate not deterministic: %v vs %v", *res.Prob, *res2.Prob)
	}
	// Below the shard threshold the sequential route is used.
	if _, err := eng.Run(ctx, "ESTIMATE 5 EXISTS R.book.author"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentHammer drives one engine from many goroutines with a
// mix of point, existence, object, batch and pxql statement queries.
// Run with -race; it is the engine's concurrency-safety witness.
func TestEngineConcurrentHammer(t *testing.T) {
	for _, tc := range []struct {
		name string
		pi   *core.ProbInstance
	}{
		{"tree", treeBib(t)},
		{"dag", fixtures.Figure2()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(tc.pi, WithWorkers(4))
			ctx := context.Background()
			// Reference answers summed over the enumerated worlds.
			or, ok := newOracle(t, tc.pi, 0)
			if !ok {
				t.Fatal("fixture too large to enumerate")
			}
			author := pathexpr.MustParse("R.book.author")
			wantPoint, wantExists := or.point(author, "A1"), or.exists(author)
			const goroutines = 16
			const iters = 25
			var wg sync.WaitGroup
			errCh := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						switch (g + i) % 5 {
						case 0:
							pr, err := eng.ProbPoint(ctx, author, "A1")
							if err != nil || !sameProb(pr, wantPoint) {
								errCh <- err
								return
							}
						case 1:
							pr, err := eng.ProbExists(ctx, author)
							if err != nil || !sameProb(pr, wantExists) {
								errCh <- err
								return
							}
						case 2:
							if _, err := eng.Run(ctx, "PROB OBJECT A1"); err != nil {
								errCh <- err
								return
							}
						case 3:
							if _, err := eng.Run(ctx, "STATS"); err != nil {
								errCh <- err
								return
							}
						case 4:
							for _, br := range eng.RunBatch(ctx, []string{"PROB R.book.author = A1", "PROB R.book.author = A2"}) {
								if br.Err != nil {
									errCh <- br.Err
									return
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Errorf("hammer worker failed: %v", err)
			}
			m := eng.Metrics()
			if m["queries"].(int64) == 0 || m["cache_hits"].(int64) == 0 {
				t.Errorf("metrics after hammer: %v", m)
			}
		})
	}
}

// TestRunBatchBNConcurrent: BN-lane batches over one DAG from eight
// goroutines at once give bit for bit the answers of serial runs. Every
// statement borrows a pooled bayes workspace; under -race this shows no
// two statements ever share one.
func TestRunBatchBNConcurrent(t *testing.T) {
	pi, err := gen.WidthBomb(gen.BombConfig{Width: 4, Parents: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(pi, WithWorkers(4))
	ctx := context.Background()
	stmts := []string{"PROB EXISTS bomb.arm.leaf", "PROB bomb.arm.* = leaf1", "PROB OBJECT arm0", "PROB OBJECT arm1"}
	for _, leaf := range []string{"leaf0", "leaf1", "leaf2", "leaf3"} {
		stmts = append(stmts, "PROB OBJECT "+leaf, "PROB bomb.arm.leaf = "+leaf)
	}
	want := make([]float64, len(stmts))
	for i, s := range stmts {
		res, err := eng.Run(ctx, s)
		if err != nil || res.Prob == nil {
			t.Fatalf("%s: %v, %+v", s, err, res)
		}
		want[i] = *res.Prob
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, br := range eng.RunBatch(ctx, stmts) {
					if br.Err != nil || br.Result.Prob == nil {
						t.Errorf("%s: %v", stmts[i], br.Err)
						return
					}
					if got := *br.Result.Prob; math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s = %v concurrently, %v serially", stmts[i], got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestShapeObserver: every instrumented entry point must report its
// statement shape exactly once, with a plausible duration.
func TestShapeObserver(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	eng := New(treeBib(t), WithShapeObserver(func(shape string, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for shape %q", shape)
		}
		mu.Lock()
		counts[shape]++
		mu.Unlock()
	}))
	ctx := context.Background()
	run := func(stmt string) {
		t.Helper()
		if _, err := eng.Run(ctx, stmt); err != nil {
			t.Fatalf("Run(%q): %v", stmt, err)
		}
	}
	run("PROJECT R.book.author")
	run("SELECT R.book = B1")
	run("PROB R.book = B1")
	run("PROB EXISTS R.book")
	run("WORLDS 2")
	run("ESTIMATE 50 EXISTS R.book")
	run("STATS")
	// Each typed entry point reports its own shape, exactly once per call.
	book, title := pathexpr.MustParse("R.book"), pathexpr.MustParse("R.book.title")
	for _, tc := range []struct {
		name, shape string
		call        func() error
	}{
		{"ProbExists", pxql.ShapeExists, func() error { _, err := eng.ProbExists(ctx, book); return err }},
		{"ProbPoint", pxql.ShapePoint, func() error { _, err := eng.ProbPoint(ctx, book, "B1"); return err }},
		{"ProbValue", pxql.ShapePoint, func() error { _, err := eng.ProbValue(ctx, title, "T1", "Lore"); return err }},
		{"ProbObject", pxql.ShapePoint, func() error { _, err := eng.ProbObject(ctx, "B1"); return err }},
		{"Exec", pxql.ShapeStats, func() error { _, err := eng.Exec(ctx, pxql.Query{Op: "stats"}); return err }},
	} {
		mu.Lock()
		want := maps.Clone(counts)
		mu.Unlock()
		want[tc.shape]++
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mu.Lock()
		if !maps.Equal(counts, want) {
			t.Errorf("%s: observed %v, want one more %q and nothing else (%v)", tc.name, counts, tc.shape, want)
		}
		mu.Unlock()
	}
	want := map[string]int{
		pxql.ShapeProject:  1,
		pxql.ShapeSelect:   1,
		pxql.ShapePoint:    4, // PROB point statement + ProbPoint, ProbValue, ProbObject calls
		pxql.ShapeExists:   2, // PROB EXISTS statement + ProbExists call
		pxql.ShapeEnum:     1,
		pxql.ShapeEstimate: 1,
		pxql.ShapeStats:    2, // STATS statement + Exec of a parsed one
	}
	mu.Lock()
	defer mu.Unlock()
	for shape, n := range want {
		if counts[shape] != n {
			t.Errorf("shape %q observed %d times, want %d (all: %v)", shape, counts[shape], n, counts)
		}
	}
}

// TestProbObjectTreeRoute: on a tree PROB OBJECT is answered from the
// cached ε-lane marginals — the network is never compiled, admission
// predicts the ε route's cost — and agrees with the BN lane on every
// object.
func TestProbObjectTreeRoute(t *testing.T) {
	in, err := gen.Generate(gen.Config{Depth: 3, Branch: 3, Labeling: gen.FR, LeafDomainSize: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range []*core.ProbInstance{treeBib(t), in.PI} {
		var estimated int64
		eng := New(pi, WithBudget(govern.Budget{MaxSteps: 1 << 30}),
			WithCostObserver(func(_ string, est, _ int64) { estimated = est }))
		net, err := bayes.Compile(pi)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range pi.Objects() {
			got, err := eng.ProbObject(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := net.ProbExistsCtx(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*math.Max(got, want) {
				t.Errorf("P(%s exists) = %v on the tree route, BN lane %v", o, got, want)
			}
		}
		if _, err := eng.Run(context.Background(), "PROB OBJECT "+pi.Objects()[0]); err != nil {
			t.Fatal(err)
		}
		if want := eng.Profile().TotalOPFEntries; estimated != want {
			t.Errorf("admission estimated %d steps, want the ε route's %d", estimated, want)
		}
		if eng.net.ready.Load() {
			t.Error("PROB OBJECT on a tree compiled the Bayesian network")
		}
		if _, err := eng.ProbObject(context.Background(), "no-such-object"); err == nil {
			t.Error("unknown object accepted")
		}
	}
}

// TestWithProbMatchesFmt: answers rendered without fmt carry the bytes
// %.9f wrote, for any float64 a kernel could return and some it should not.
func TestWithProbMatchesFmt(t *testing.T) {
	for _, p := range []float64{
		0, 1, 0.56, 0.1 + 0.2, 1e-6, 5e-10, 4.9999999999e-10, 5e-324, 0.9999999995, 1e20, 1.5e300,
		-0.25, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		if got, want := withProb(p, "P(", "x", " exists) = "), fmt.Sprintf("P(%s exists) = %.9f", "x", p); got != want {
			t.Errorf("withProb(%v) = %q, fmt %q", p, got, want)
		}
	}
}
