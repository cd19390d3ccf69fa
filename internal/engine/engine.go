// Package engine executes queries against one immutable probabilistic
// instance while lazily caching the support structures every query
// otherwise re-derives from scratch: the label-partitioned path index, the
// compiled Bayesian network, and the one-pass existence marginals (the
// weak graph and its tree/DAG classification are memoized by the instance
// itself). The first query that needs a structure pays for building it;
// every later query — from any goroutine — reuses it.
//
// An Engine is safe for concurrent use and assumes the wrapped instance is
// never mutated after construction (the contract the server catalog
// already enforces: algebra results are fresh instances). It is the only
// evaluator: every pxql statement is executed by dispatch (exec.go), and
// the tree-or-DAG lane is chosen by the routed primitives in this file and
// nowhere else. The execution API is context-aware — Run, Exec and the
// Prob* entry points check for cancellation between phases (parse,
// structure build, inference) — and RunBatch and Monte-Carlo estimation
// fan independent sub-evaluations out over a bounded worker pool.
//
// Per-engine observability: query and error counts, cache hits/misses,
// and a latency timer, exported as a JSON-encodable snapshot (the
// server aggregates these under GET /metrics).
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/bayes"
	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/metrics"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/pxql"
	"pxml/internal/query"
	"pxml/internal/rescache"
)

// ErrQueryPanic reports that one query's evaluation panicked. The panic is
// contained to that query — the engine, its caches, and concurrent queries
// are unaffected — and surfaces as an error so servers can answer 500 for
// the one statement instead of crashing the process.
var ErrQueryPanic = errors.New("engine: query evaluation panicked")

// recoverQueryPanic converts a panic on the query path into ErrQueryPanic.
// Intended as `defer recoverQueryPanic(&err)` at each evaluation boundary.
func recoverQueryPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrQueryPanic, r)
	}
}

// lazy is a build-once cache slot. ready is set (with release semantics)
// only after once.Do completes, so a true load guarantees v/err are
// visible; callers that observe ready avoid the Once entirely.
type lazy[T any] struct {
	once  sync.Once
	ready atomic.Bool
	v     T
	err   error
}

// get returns the cached value, building it on first use. hit reports
// whether the value was already built (callers that raced the builder and
// had to wait count as misses). A build that panics is contained: the
// slot caches ErrQueryPanic (a sync.Once never re-runs, so letting the
// panic escape would leave every later caller a zero value with no
// error), and the engine keeps serving queries that don't need the slot.
func (l *lazy[T]) get(build func() (T, error)) (v T, err error, hit bool) {
	if l.ready.Load() {
		return l.v, l.err, true
	}
	l.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				l.err = fmt.Errorf("%w: building query structure: %v", ErrQueryPanic, r)
			}
			l.ready.Store(true)
		}()
		l.v, l.err = build()
	})
	return l.v, l.err, false
}

// Engine wraps one immutable instance with cached query structures.
type Engine struct {
	pi  *core.ProbInstance
	sem chan struct{} // bounded worker pool for batch evaluation

	idx  lazy[*pathexpr.Index]
	net  lazy[*bayes.Network]
	marg lazy[map[model.ObjectID]float64]
	prof lazy[govern.Profile]

	// budget is the per-query resource envelope (WithBudget). The zero
	// value imposes no limits; either way every entry point installs a
	// governor so caller cancellation reaches the inference kernels.
	budget govern.Budget

	// costObs, when set (WithCostObserver), receives each governed
	// statement's shape with the admission estimator's predicted step
	// cost and the steps actually charged — the estimated-vs-actual
	// telemetry the server exports.
	costObs func(shape string, estimated, actual int64)

	// Optional memoization of whole statement results (see
	// WithResultCache). rkey namespaces this engine's entries inside the
	// shared cache; the owner bumps the prefix to invalidate.
	rcache *rescache.Cache
	rkey   string

	// shapeObs, when set (WithShapeObserver), receives every evaluated
	// statement's shape and latency — the server's per-shape percentile
	// telemetry hangs off this hook.
	shapeObs func(shape string, d time.Duration)

	reg     *metrics.Registry
	queries *metrics.Counter
	errs    *metrics.Counter
	hits    *metrics.Counter
	misses  *metrics.Counter
	rhits   *metrics.Counter
	rmisses *metrics.Counter
	latency *metrics.Timer
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the worker pool used by the batch entry points
// (default: 8). n < 1 is treated as 1.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.sem = make(chan struct{}, n)
	}
}

// WithResultCache memoizes successful Run results in a shared cache,
// keyed by keyPrefix + the statement text. Concurrent identical
// statements collapse to one evaluation (singleflight). Instance-valued
// results are never cached — they can be arbitrarily large and are handed
// to callers who may store them. A kept result keeps its rendered v1 query
// body beside it (see Answer). The cache holds no reference back to the
// engine, so invalidation is the owner's job: replace the engine (or the
// prefix) whenever the underlying instance changes, and the old entries
// become unreachable and age out of the LRU.
func WithResultCache(c *rescache.Cache, keyPrefix string) Option {
	return func(e *Engine) {
		e.rcache = c
		e.rkey = keyPrefix
	}
}

// WithShapeObserver registers f to receive the statement shape (see
// pxql.ClassifyShape) and wall-clock latency of every Run/Exec/Prob*
// evaluation, including result-cache hits. f runs on the request
// goroutine after the result is ready, so it must be fast and must not
// block — recording into a lock-free metrics.Timer is the intended use.
func WithShapeObserver(f func(shape string, d time.Duration)) Option {
	return func(e *Engine) { e.shapeObs = f }
}

// WithBudget sets the per-query resource envelope. Each Run/Exec/Prob*
// call gets its own governor enforcing the budget (deadline, step budget,
// approximate allocation budget) cooperatively inside the inference
// kernels, plus an upfront admission check that refuses statements whose
// predicted cost provably exceeds the budget (govern.ErrIntractable)
// before any factor table is allocated. The zero budget imposes no limits
// but still propagates cancellation into the kernels.
func WithBudget(b govern.Budget) Option {
	return func(e *Engine) { e.budget = b }
}

// WithCostObserver registers f to receive, for every governed statement,
// its shape, the admission estimator's predicted step cost (0 when the
// statement's shape has no estimator), and the steps actually charged.
// f runs on the request goroutine after the result is ready; it must be
// fast and must not block.
func WithCostObserver(f func(shape string, estimated, actual int64)) Option {
	return func(e *Engine) { e.costObs = f }
}

// defaultWorkers bounds batch parallelism when WithWorkers is not given.
// A fixed small constant (rather than GOMAXPROCS) keeps a server hosting
// many engines from over-subscribing the machine.
const defaultWorkers = 8

// New wraps an instance. The instance must not be mutated afterwards.
func New(pi *core.ProbInstance, opts ...Option) *Engine {
	e := &Engine{
		pi:  pi,
		sem: make(chan struct{}, defaultWorkers),
		reg: metrics.NewRegistry(),
	}
	e.queries = e.reg.Counter("queries")
	e.errs = e.reg.Counter("errors")
	e.hits = e.reg.Counter("cache_hits")
	e.misses = e.reg.Counter("cache_misses")
	e.rhits = e.reg.Counter("result_cache_hits")
	e.rmisses = e.reg.Counter("result_cache_misses")
	e.latency = e.reg.Timer("latency")
	for _, o := range opts {
		o(e)
	}
	return e
}

// Instance returns the wrapped instance (treat as read-only).
func (e *Engine) Instance() *core.ProbInstance { return e.pi }

// Metrics returns a JSON-encodable snapshot of the engine's counters and
// latency timer.
func (e *Engine) Metrics() map[string]any { return e.reg.Snapshot() }

// count tallies a cache access on the engine's hit/miss counters.
func (e *Engine) count(hit bool) {
	if hit {
		e.hits.Inc()
	} else {
		e.misses.Inc()
	}
}

// IsTree returns the tree/DAG classification of the weak graph, which the
// instance memoizes; it does not move the cache_hits/cache_misses counters.
func (e *Engine) IsTree() bool { return e.pi.IsTree() }

// Index returns the cached label-partitioned path index.
func (e *Engine) Index() *pathexpr.Index {
	v, _, hit := e.idx.get(func() (*pathexpr.Index, error) {
		return pathexpr.NewIndex(e.pi.WeakInstance.Graph()), nil
	})
	e.count(hit)
	return v
}

// Network returns the cached compiled Bayesian network (the compile error,
// if any, is cached too).
func (e *Engine) Network() (*bayes.Network, error) {
	v, err, hit := e.net.get(func() (*bayes.Network, error) { return bayes.Compile(e.pi) })
	e.count(hit)
	return v, err
}

// marginals returns the cached existence marginals P(o exists) for every
// object (tree instances; the error is cached on DAGs). The map is shared
// between callers: read-only.
func (e *Engine) marginals() (map[model.ObjectID]float64, error) {
	v, err, hit := e.marg.get(func() (map[model.ObjectID]float64, error) {
		return query.ExistenceMarginals(e.pi)
	})
	e.count(hit)
	return v, err
}

// Profile returns the cached upfront width/cost profile of the instance
// (govern.Measure): the structural quantities admission control compares
// against the budget without allocating any inference state.
func (e *Engine) Profile() govern.Profile {
	v, _, hit := e.prof.get(func() (govern.Profile, error) { return govern.Measure(e.pi), nil })
	e.count(hit)
	return v
}

// Budget returns the engine's configured per-query resource envelope.
func (e *Engine) Budget() govern.Budget { return e.budget }

// governed returns ctx carrying a governor for one query. A governor
// already on ctx is reused (a caller that governs several evaluations as
// one keeps its budget); otherwise a new one enforces the engine's budget,
// deadline included: the governor owns the deadline and checks it once per
// quantum, so no query arms a timer (DESIGN §17).
func (e *Engine) governed(ctx context.Context) (context.Context, *govern.Governor) {
	if g := govern.From(ctx); g != nil {
		return ctx, g
	}
	g := govern.New(ctx, e.budget)
	return govern.With(ctx, g), g
}

// admit is the upfront admission check: it compares the statement's
// predicted cost (from the cached instance profile) against the engine's
// budget and refuses provably-over-budget work before any inference state
// is allocated. Structural impossibilities — a compiled CPT that cannot
// fit under the hard factor cap or the byte budget — are
// govern.ErrIntractable (retrying the same statement cannot succeed);
// a sample count that merely overruns the step budget is
// govern.ErrBudgetExceeded (a cheaper variant may fit). The predicted
// step cost is recorded on g for estimated-vs-actual observability.
func (e *Engine) admit(op string, top int, g *govern.Governor) error {
	b := e.budget
	if b.MaxSteps == 0 && b.MaxBytes == 0 {
		return nil
	}
	switch op {
	case "estimate-exists", "estimate-point":
		prof := e.Profile()
		per := int64(prof.Objects)
		if per < 1 {
			per = 1
		}
		est := int64(top) * per
		g.SetEstimate(est)
		if b.MaxSteps > 0 && est > b.MaxSteps {
			return fmt.Errorf("%w: %d samples × %d objects ≈ %d steps over the %d-step budget (reduce the sample count)",
				govern.ErrBudgetExceeded, top, per, est, b.MaxSteps)
		}
	case "worlds", "topk":
		prof := e.Profile()
		g.SetEstimate(govern.ClampSteps(prof.WorldsFloor))
		if b.MaxSteps > 0 && prof.WorldsFloor > float64(b.MaxSteps) {
			return fmt.Errorf("%w: at least %.0f possible worlds exceed the %d-step budget",
				govern.ErrIntractable, prof.WorldsFloor, b.MaxSteps)
		}
	case "prob-object", "prob-point", "prob-exists", "prob-value":
		prof := e.Profile()
		if prof.Tree {
			// ε-recursion route: one pass over the local distributions.
			g.SetEstimate(prof.TotalOPFEntries)
			return nil
		}
		// BN route: compiling materializes every CPT.
		g.SetEstimate(govern.ClampSteps(prof.TotalCPTCells))
		if prof.MaxCPTCells > float64(bayes.MaxFactorEntries) {
			return fmt.Errorf("%w: CPT for %s needs %.3g cells, over the %d-cell factor cap",
				govern.ErrIntractable, prof.WidestObject, prof.MaxCPTCells, int64(bayes.MaxFactorEntries))
		}
		if b.MaxBytes > 0 && prof.TotalCPTCells*8 > float64(b.MaxBytes) {
			return fmt.Errorf("%w: compiled network needs ≈%.3g bytes, over the %d-byte budget",
				govern.ErrIntractable, prof.TotalCPTCells*8, b.MaxBytes)
		}
		if b.MaxSteps > 0 && prof.TotalCPTCells > float64(b.MaxSteps) {
			return fmt.Errorf("%w: compiled network needs ≈%.3g cells, over the %d-step budget",
				govern.ErrIntractable, prof.TotalCPTCells, b.MaxSteps)
		}
	}
	return nil
}

// Warm precomputes the structures queries will need: the path index
// always, the Bayesian network only for DAG instances (tree queries never
// touch it). The tree classification it reads on the way is memoized by the
// instance, not the engine. Cancellation is honored between phases.
func (e *Engine) Warm(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tree := e.IsTree()
	e.Index()
	if tree {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := e.Network()
	return err
}

// finish records one query's latency and error outcome.
func (e *Engine) finish(d time.Duration, err error) {
	e.latency.Observe(d)
	if err != nil {
		e.errs.Inc()
	}
}

// Run parses and executes one pxql statement. Cancellation and deadlines
// on ctx are checked between the parse, structure-build and inference
// phases (a phase already in flight runs to completion). With a result
// cache attached (WithResultCache), a repeated statement is answered from
// the cache — with the very *pxql.Result the first evaluation produced — and
// concurrent identical statements share one evaluation; hits still count
// toward queries and latency.
func (e *Engine) Run(ctx context.Context, statement string) (*pxql.Result, error) {
	res, _, err := e.Answer(ctx, statement)
	return res, err
}

// Answer is Run for a server: with the result it returns body, the v1
// query response for it (apiv1.AppendQueryResponse, no stored name) when
// the result cache keeps the result. The body is rendered once, when the
// result enters the cache, and shared with every later caller of the
// statement, so it is read-only. It is nil for a result the cache does not
// keep: no cache, an instance-valued result, one no shard could hold.
func (e *Engine) Answer(ctx context.Context, statement string) (res *pxql.Result, body []byte, err error) {
	start := time.Now()
	e.queries.Inc()
	shape := "" // set by this call's evaluation or by the cached entry
	defer func() {
		d := time.Since(start)
		e.finish(d, err)
		if e.shapeObs != nil {
			if shape == "" { // no parse of ours, nor a cached entry, gave one
				shape = pxql.ClassifyShape(statement)
			}
			e.shapeObs(shape, d)
		}
	}()
	if err = ctx.Err(); err != nil {
		return nil, nil, err
	}
	if e.rcache == nil {
		res, shape, err = e.runParsed(ctx, statement)
		return res, nil, err
	}
	computed := false
	v, err := e.rcache.DoCtx(ctx, e.rkey+statement, func() (any, int64, error) {
		computed = true
		var r *pxql.Result
		var rerr error
		r, shape, rerr = e.runParsed(ctx, statement)
		if rerr != nil {
			return nil, 0, rerr
		}
		// Shared with concurrent waiters either way, but neither retained
		// nor rendered.
		if r.Instance != nil || !e.rcache.Holds(resultCost(statement, r, nil)) {
			return r, -1, nil
		}
		c := &cached{res: r, shape: shape, body: apiv1.AppendQueryResponse(nil, r.Text, r.Prob, "")}
		return c, resultCost(statement, r, c.body), nil
	})
	switch {
	case computed:
		e.rmisses.Inc()
	case err == nil:
		e.rhits.Inc()
	}
	if err != nil {
		return nil, nil, err
	}
	// The cached value itself, shared with every other caller of the same
	// statement: a Result is immutable once returned (see pxql.Result).
	if c, ok := v.(*cached); ok {
		shape = c.shape
		return c.res, c.body, nil
	}
	return v.(*pxql.Result), nil, nil
}

// cached is what the result cache keeps for a statement: the result, the
// statement's shape as its parse gave it, and the result's v1 query
// response body. All three are set when the entry is filled and never
// written again.
type cached struct {
	res   *pxql.Result
	shape string
	body  []byte
}

// runParsed is the uncached parse+execute path behind Answer. It also
// returns the statement's shape as its parse gives it ("" for a statement
// that does not parse).
func (e *Engine) runParsed(ctx context.Context, statement string) (*pxql.Result, string, error) {
	q, err := pxql.Parse(statement)
	if err != nil {
		return nil, "", err
	}
	res, err := e.exec(ctx, false, q)
	return res, q.Shape(), err
}

// resultCost estimates the bytes a cached result pins: the statement (in
// the key), the answer's text and its rendered body, plus the fixed struct
// overhead.
func resultCost(statement string, r *pxql.Result, body []byte) int64 {
	return int64(len(statement)) + int64(len(r.Text)) + int64(len(body)) + 64
}

// ProbExists returns P(∃o. o ∈ p): the Section 6.2 tree fast path, or
// cached-network BN inference on DAGs.
func (e *Engine) ProbExists(ctx context.Context, p pathexpr.Path) (pr float64, err error) {
	err = e.evaluate(ctx, true, pxql.ShapeExists, "prob-exists", 0, func(ctx context.Context) (err error) {
		pr, err = e.existsProb(ctx, p)
		return err
	})
	return pr, err
}

// ProbPoint returns P(o ∈ p), routed like ProbExists.
func (e *Engine) ProbPoint(ctx context.Context, p pathexpr.Path, o model.ObjectID) (pr float64, err error) {
	err = e.evaluate(ctx, true, pxql.ShapePoint, "prob-point", 0, func(ctx context.Context) (err error) {
		pr, err = e.pointProb(ctx, p, o)
		return err
	})
	return pr, err
}

// ProbValue returns P(o ∈ p ∧ val(o) = v). On trees it runs the ε
// recursion with the VPF as the success probability; on DAGs it factors
// into P(o ∈ p) · VPF(o)(v) (the value draw is independent of the
// structure choice given that o occurs).
func (e *Engine) ProbValue(ctx context.Context, p pathexpr.Path, o model.ObjectID, v model.Value) (pr float64, err error) {
	err = e.evaluate(ctx, true, pxql.ShapePoint, "prob-value", 0, func(ctx context.Context) (err error) {
		pr, err = e.valuePointProb(ctx, p, o, v)
		return err
	})
	return pr, err
}

// ProbObject returns the existence marginal P(o exists): from the cached
// ε-lane marginals on trees, via the cached network on DAGs.
func (e *Engine) ProbObject(ctx context.Context, o model.ObjectID) (pr float64, err error) {
	err = e.evaluate(ctx, true, pxql.ShapePoint, "prob-object", 0, func(ctx context.Context) (err error) {
		pr, err = e.objectProb(ctx, o)
		return err
	})
	return pr, err
}

// The routed primitives: each picks the ε lane on a tree and the compiled
// network on a DAG, and nothing outside this package makes that choice.
// They neither meter nor govern — the typed Prob* methods and dispatch
// reach them through evaluate, which does both once per statement. Their
// checks between stages ask that statement's governor, which owns the
// deadline, and not ctx, whose own deadline may arm a timer when asked.

func (e *Engine) pointProb(ctx context.Context, p pathexpr.Path, o model.ObjectID) (float64, error) {
	gov := govern.From(ctx)
	if err := gov.Err(); err != nil {
		return 0, err
	}
	if e.IsTree() {
		return query.PointQueryIndexedCtx(ctx, e.pi, e.Index(), p, o)
	}
	net, err := e.Network()
	if err != nil {
		return 0, err
	}
	if err := gov.Err(); err != nil {
		return 0, err
	}
	return bayes.PathProbWithCtx(ctx, net, e.pi, p, o)
}

func (e *Engine) existsProb(ctx context.Context, p pathexpr.Path) (float64, error) {
	gov := govern.From(ctx)
	if err := gov.Err(); err != nil {
		return 0, err
	}
	if e.IsTree() {
		return query.ExistsQuery(ctx, e.pi, p)
	}
	net, err := e.Network()
	if err != nil {
		return 0, err
	}
	if err := gov.Err(); err != nil {
		return 0, err
	}
	return bayes.PathProbWithCtx(ctx, net, e.pi, p, "")
}

func (e *Engine) objectProb(ctx context.Context, o model.ObjectID) (float64, error) {
	if e.IsTree() {
		// The ε lane's chain products, computed once for every object.
		marg, err := e.marginals()
		if err != nil {
			return 0, err
		}
		// Objects under a parent that never occurs have no entry.
		if pr, ok := marg[o]; ok || e.pi.HasObject(o) {
			return pr, nil
		}
		return 0, fmt.Errorf("engine: unknown object %s", o)
	}
	net, err := e.Network()
	if err != nil {
		return 0, err
	}
	if err := govern.From(ctx).Err(); err != nil {
		return 0, err
	}
	return net.ProbExistsCtx(ctx, o)
}

// valuePointProb is ProbValue's routing: the ε recursion with the VPF as the
// success probability on a tree; P(o ∈ p) · VPF(o)(v) on a DAG.
func (e *Engine) valuePointProb(ctx context.Context, p pathexpr.Path, o model.ObjectID, v model.Value) (float64, error) {
	if e.IsTree() {
		return query.ValuePointQuery(ctx, e.pi, p, o, v)
	}
	vpf := e.pi.VPF(o)
	if vpf == nil {
		return 0, nil
	}
	pr, err := e.pointProb(ctx, p, o)
	if err != nil {
		return 0, err
	}
	return pr * vpf.Prob(v), nil
}

// valueExistsProb returns P(∃ leaf o ∈ p with val(o) = v). It has a tree
// route only: summing over several leaves of a DAG is not a product of
// marginals.
func (e *Engine) valueExistsProb(ctx context.Context, p pathexpr.Path, v model.Value) (float64, error) {
	if err := govern.From(ctx).Err(); err != nil {
		return 0, err
	}
	if !e.IsTree() {
		return 0, query.ErrNotTree
	}
	return query.ValueExistsQuery(ctx, e.pi, p, v)
}
