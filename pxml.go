// Package pxml is a Go implementation of PXML, the probabilistic
// semistructured data model and algebra of Hung, Getoor and Subrahmanian
// (ICDE 2003). It provides:
//
//   - the PSD data model: weak instances, cardinality constraints, object
//     and value probability functions, and probabilistic instances
//     (paper Section 3);
//   - the possible-worlds semantics: enumeration of compatible instances,
//     the local→global construction of Theorem 1, and the factorization of
//     Theorem 2 (Section 4);
//   - the algebra: ancestor projection, selection (object / value /
//     cardinality conditions) and Cartesian product (Section 5), plus the
//     deferred operators — descendant and single projection, and join —
//     as documented extensions;
//   - the efficient local algorithms of Section 6 for tree-structured
//     instances, a Bayesian-network compiler with exact variable
//     elimination for DAG-structured instances, and probabilistic point,
//     existence and chain queries;
//   - serialization (JSON and a compact text format) and the Section 7.1
//     workload generator (cmd/pxmlbench runs the Figure 7 experiments on it).
//
// Construct instances with NewBuilder (or New for manual assembly), then
// apply operators:
//
//	b := pxml.NewBuilder("R").
//		Children("R", "book", "B1", "B2").
//		Card("R", "book", 1, 2).
//		OPF("R", pxml.Entry(0.3, "B1"), pxml.Entry(0.2, "B2"), pxml.Entry(0.5, "B1", "B2"))
//	inst, err := b.Build()
//	...
//	result, err := pxml.AncestorProject(inst, pxml.MustParsePath("R.book"))
//
// The Section 6 fast paths require the weak instance graph to be a tree and
// return ErrNotTree otherwise; the *Global variants and the Bayesian
// network functions (ProbExists, PathProb) handle arbitrary acyclic
// instances.
package pxml

import (
	"context"
	"io"
	"math/rand"

	"pxml/internal/algebra"
	"pxml/internal/bayes"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/engine"
	"pxml/internal/enumerate"
	"pxml/internal/gen"
	"pxml/internal/ingest"
	"pxml/internal/interval"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/pxql"
	"pxml/internal/query"
	"pxml/internal/sets"
)

// Core model types.
type (
	// ProbInstance is a probabilistic instance (Definition 3.11): a weak
	// instance plus a local interpretation.
	ProbInstance = core.ProbInstance
	// WeakInstance is W = (V, lch, τ, val, card) (Definition 3.4).
	WeakInstance = core.WeakInstance
	// Instance is a deterministic semistructured instance (Definition
	// 3.3) — one possible world.
	Instance = model.Instance
	// Type is a leaf type with a finite value domain.
	Type = model.Type
	// OPF is an object probability function (Definition 3.8).
	OPF = prob.OPF
	// VPF is a value probability function (Definition 3.9).
	VPF = prob.VPF
	// IndependentOPF is the compact per-child representation (ProTDB's
	// model as a PXML special case, paper Section 8).
	IndependentOPF = prob.IndependentOPF
	// SymmetricOPF is the compact representation for indistinguishable
	// children (the Section 3.2 vehicle example).
	SymmetricOPF = prob.SymmetricOPF
	// Set is a canonical set of object identifiers.
	Set = sets.Set
	// Interval is a cardinality interval [min, max].
	Interval = sets.Interval
	// Path is a parsed path expression (Definition 5.1).
	Path = pathexpr.Path
	// Stats summarizes an instance (object/edge/entry counts).
	Stats = core.Stats
)

// Semantics types.
type (
	// GlobalInterpretation is a distribution over possible worlds
	// (Definition 4.2).
	GlobalInterpretation = enumerate.GlobalInterpretation
	// World is one possible world with its probability.
	World = enumerate.World
)

// Algebra types.
type (
	// Condition is a selection condition (Section 5.2).
	Condition = algebra.Condition
	// ObjectCondition is p = o (Definition 5.4).
	ObjectCondition = algebra.ObjectCondition
	// ValueCondition is val(p) = v (Definition 5.5).
	ValueCondition = algebra.ValueCondition
	// CardCondition constrains a matched object's child count (the
	// cardinality comparison the paper sketches).
	CardCondition = algebra.CardCondition
	// Conjunction conjoins several conditions; conjunctions of object
	// conditions keep the fast path.
	Conjunction = algebra.Conjunction
	// Timings is the per-phase cost breakdown of an operation.
	Timings = algebra.Timings
	// JoinResult bundles a join's instance, probability and renames.
	JoinResult = algebra.JoinResult
)

// Bayesian-network types.
type (
	// Network is a Bayesian network compiled from an instance.
	Network = bayes.Network
)

// Interval-probability types (the companion-paper PIXML variant the paper
// references in its introduction).
type (
	// Bound is a closed probability subinterval [Lo, Hi].
	Bound = interval.Bound
	// IntervalOPF assigns probability bounds to potential child sets.
	IntervalOPF = interval.OPF
	// IntervalVPF assigns probability bounds to leaf values.
	IntervalVPF = interval.VPF
	// IntervalInstance is a weak instance with interval local functions,
	// denoting the set of point instances within the bounds.
	IntervalInstance = interval.Instance
)

// Query-language types.
type (
	// PXQLQuery is a parsed pxql statement.
	PXQLQuery = pxql.Query
	// PXQLResult is the outcome of executing a pxql statement.
	PXQLResult = pxql.Result
)

// Workload types.
type (
	// GenConfig parameterizes the Section 7.1 workload generator.
	GenConfig = gen.Config
	// Workload is a generated instance plus query metadata.
	Workload = gen.Instance
	// Labeling is SL or FR.
	Labeling = gen.Labeling
	// BombConfig parameterizes the adversarial width-bomb generator.
	BombConfig = gen.BombConfig
)

// Labeling schemes (Section 7.1).
const (
	SL = gen.SL
	FR = gen.FR
)

// Errors returned by the fast paths (shared between the algebra and query
// layers, so a single errors.Is check covers both).
var (
	ErrNotTree          = algebra.ErrNotTree
	ErrZeroProbability  = algebra.ErrZeroProbability
	ErrNotRepresentable = algebra.ErrNotRepresentable
)

// New returns an empty probabilistic instance rooted at root.
func New(root string) *ProbInstance { return core.NewProbInstance(root) }

// NewInstance returns an empty deterministic semistructured instance.
func NewInstance(root string) *Instance { return model.NewInstance(root) }

// NewType builds a leaf type with a canonical domain.
func NewType(name string, domain ...string) Type { return model.NewType(name, domain...) }

// NewSet returns the canonical set of the given ids.
func NewSet(ids ...string) Set { return sets.NewSet(ids...) }

// NewOPF returns an empty object probability function.
func NewOPF() *OPF { return prob.NewOPF() }

// NewVPF returns an empty value probability function.
func NewVPF() *VPF { return prob.NewVPF() }

// NewIndependentOPF returns an empty independent-children OPF.
func NewIndependentOPF() *IndependentOPF { return prob.NewIndependentOPF() }

// PointMass returns the VPF assigning probability one to v.
func PointMass(v string) *VPF { return prob.PointMass(v) }

// UniformVPF returns the uniform VPF over values.
func UniformVPF(values []string) *VPF { return prob.Uniform(values) }

// PathIndex is the label-partitioned successor table path evaluation reads
// over one (immutable) instance.
type PathIndex = pathexpr.Index

// NewPathIndex returns the path-evaluation index of the instance's weak
// instance graph, which builds it on first use and keeps it until the next
// structural mutation; ask again after one.
func NewPathIndex(pi *ProbInstance) *PathIndex {
	return pathexpr.NewIndex(pi.WeakInstance.Graph())
}

// TargetsIndexed evaluates a path expression through a PathIndex,
// returning the objects it denotes.
func TargetsIndexed(idx *PathIndex, p Path) []string {
	return p.TargetsIndexed(idx)
}

// ParsePath parses a path expression "r.l1.l2…ln".
func ParsePath(s string) (Path, error) { return pathexpr.Parse(s) }

// MustParsePath is ParsePath that panics on error.
func MustParsePath(s string) Path { return pathexpr.MustParse(s) }

// AncestorProject computes Λ_p(I) via the Section 6.1 algorithm
// (tree-structured instances; see AncestorProjectGlobal for DAGs).
func AncestorProject(pi *ProbInstance, p Path) (*ProbInstance, error) {
	return algebra.AncestorProject(pi, p)
}

// AncestorProjectGlobal computes Λ_p by the Definition 5.3 global
// semantics via enumeration — exact on DAGs, exponential in instance size.
func AncestorProjectGlobal(pi *ProbInstance, p Path, limit int) (*GlobalInterpretation, error) {
	return algebra.AncestorProjectGlobal(pi, p, limit)
}

// Select computes σ_sc(I) with the efficient chain-conditioning algorithm,
// returning the conditioned instance and the condition's probability.
func Select(pi *ProbInstance, cond Condition) (*ProbInstance, float64, error) {
	return algebra.Select(pi, cond)
}

// SelectGlobal computes selection by the Definition 5.6 global semantics.
func SelectGlobal(pi *ProbInstance, cond Condition, limit int) (*GlobalInterpretation, float64, error) {
	return algebra.SelectGlobal(pi, cond, limit)
}

// CartesianProduct computes I × I′ (Definition 5.7), returning the product
// and the identifier renames applied to the second operand.
func CartesianProduct(a, b *ProbInstance, newRoot string) (*ProbInstance, map[string]string, error) {
	return algebra.CartesianProduct(a, b, newRoot)
}

// Join computes σ_cond(I × I′), the paper's join.
func Join(a, b *ProbInstance, newRoot string, cond Condition) (*JoinResult, error) {
	return algebra.Join(a, b, newRoot, cond)
}

// SingleProject keeps the root and the matched objects (extension).
func SingleProject(pi *ProbInstance, p Path) (*ProbInstance, error) {
	return algebra.SingleProject(pi, p)
}

// DescendantProject keeps the matched objects and their substructure
// (extension; the dual of ancestor projection).
func DescendantProject(pi *ProbInstance, p Path) (*ProbInstance, error) {
	return algebra.DescendantProject(pi, p)
}

// Mixture forms the convex combination of two world distributions
// (extension; the possible-worlds reading of union).
func Mixture(a, b *GlobalInterpretation, w float64) (*GlobalInterpretation, error) {
	return algebra.Mixture(a, b, w)
}

// Enumerate materializes the possible worlds of an instance with their
// probabilities (Definitions 4.1–4.4). limit ≤ 0 uses the default cap.
func Enumerate(pi *ProbInstance, limit int) (*GlobalInterpretation, error) {
	return enumerate.Enumerate(pi, limit)
}

// TopK returns the k most probable possible worlds via best-first search,
// exact without enumerating the (possibly astronomical) full domain.
func TopK(pi *ProbInstance, k, maxExpansions int) ([]World, error) {
	return enumerate.TopK(context.Background(), pi, k, maxExpansions)
}

// Sample draws one possible world by forward sampling (linear in the
// number of present objects).
func Sample(pi *ProbInstance, r *rand.Rand) (*Instance, error) {
	return enumerate.Sample(pi, r)
}

// MonteCarloEstimate is a sampled probability with its standard error.
type MonteCarloEstimate = enumerate.Estimate

// EstimateProb estimates P(pred) over possible worlds from n forward
// samples — the approximate route for instances too large for Enumerate.
func EstimateProb(pi *ProbInstance, pred func(*Instance) bool, n int, r *rand.Rand) (MonteCarloEstimate, error) {
	return enumerate.EstimateProb(context.Background(), pi, pred, n, r)
}

// IngestOptions configures Ingest.
type IngestOptions = ingest.Options

// Ingest lifts a deterministic semistructured instance plus extraction
// confidences into a probabilistic instance (the noisy-extraction workflow
// of the paper's introduction).
func Ingest(s *Instance, opts IngestOptions) (*ProbInstance, error) {
	return ingest.FromInstance(s, opts)
}

// Prob returns P(∃o. o ∈ p) on any acyclic instance: the engine takes the
// Section 6 tree fast path on a tree and Bayesian-network inference on a
// DAG. Use ExistsQuery (tree route) or PathProb (network route) to pick
// the route explicitly.
func Prob(pi *ProbInstance, p Path) (float64, error) {
	return engine.New(pi).ProbExists(context.Background(), p)
}

// ProbPoint returns P(o ∈ p) on any acyclic instance, routing like Prob.
// Use PointQuery (tree route) or PathProb (network route) to pick the
// route explicitly.
func ProbPoint(pi *ProbInstance, p Path, o string) (float64, error) {
	return engine.New(pi).ProbPoint(context.Background(), p, o)
}

// ProbValue returns P(o ∈ p ∧ val(o) = v) on any acyclic instance. Trees
// run the ε recursion with the VPF as success probability; DAGs factor the
// probability into P(o ∈ p) · VPF(o)(v) over the network route (the value
// draw is independent of the structure choice given that o occurs). Use
// ValuePointQuery to demand the tree route explicitly.
func ProbValue(pi *ProbInstance, p Path, o, v string) (float64, error) {
	return engine.New(pi).ProbValue(context.Background(), p, o, v)
}

// PointQuery returns P(o ∈ p) on a tree-structured instance (Definition
// 6.1 / Section 6.2) — the explicit tree-route variant of ProbPoint; it
// returns ErrNotTree on DAGs (use PathProb there, or ProbPoint to route
// automatically).
func PointQuery(pi *ProbInstance, p Path, o string) (float64, error) {
	return query.PointQuery(pi, p, o)
}

// ExistsQuery returns P(∃o. o ∈ p) on a tree-structured instance — the
// explicit tree-route variant of Prob.
func ExistsQuery(pi *ProbInstance, p Path) (float64, error) {
	return query.ExistsQuery(context.Background(), pi, p)
}

// ChainProb returns the probability of a root-anchored object chain
// (Section 6.2); exact on DAGs too.
func ChainProb(pi *ProbInstance, chain []string) (float64, error) {
	return query.ChainProb(pi, chain)
}

// ValueExistsQuery returns P(∃ leaf o ∈ p with val(o) = v) on a tree.
func ValueExistsQuery(pi *ProbInstance, p Path, v string) (float64, error) {
	return query.ValueExistsQuery(context.Background(), pi, p, v)
}

// ValuePointQuery returns P(o ∈ p ∧ val(o) = v) on a tree — the explicit
// tree-route variant of ProbValue.
func ValuePointQuery(pi *ProbInstance, p Path, o, v string) (float64, error) {
	return query.ValuePointQuery(context.Background(), pi, p, o, v)
}

// ExistenceMarginals returns P(o exists) for every object of a
// tree-structured instance in one pass.
func ExistenceMarginals(pi *ProbInstance) (map[string]float64, error) {
	return query.ExistenceMarginals(pi)
}

// CountDistribution returns the exact distribution of the number of
// objects satisfying p in a possible world (tree-structured instances).
func CountDistribution(pi *ProbInstance, p Path) (map[int]float64, error) {
	return query.CountDistribution(context.Background(), pi, p)
}

// ExpectedCount returns E[|{o : o ∈ p}|] on a tree-structured instance.
func ExpectedCount(pi *ProbInstance, p Path) (float64, error) {
	return query.ExpectedCount(context.Background(), pi, p)
}

// Rename returns a copy of the instance with object identifiers
// substituted per the mapping (the algebra's renaming operator).
func Rename(pi *ProbInstance, m map[string]string) *ProbInstance {
	return pi.Rename(m)
}

// NewSymmetricOPF creates a compact OPF over groups of indistinguishable
// children (Section 3.2); Expand materializes the explicit table.
func NewSymmetricOPF(groups ...[]string) (*SymmetricOPF, error) {
	return prob.NewSymmetricOPF(groups...)
}

// CompileBayes maps an instance to its Bayesian network (Section 6's
// correspondence), enabling exact inference on arbitrary acyclic
// instances.
func CompileBayes(pi *ProbInstance) (*Network, error) { return bayes.Compile(pi) }

// ProbExists returns the probability that object o occurs in a possible
// world, exact on DAGs (Section 2, scenario 4).
func ProbExists(pi *ProbInstance, o string) (float64, error) {
	return engine.New(pi).ProbObject(context.Background(), o)
}

// PathProb answers a point query (o != "") or existence query (o == "")
// on an arbitrary acyclic instance via the augmented Bayesian network —
// the explicit network-route variant of ProbPoint / Prob (it compiles the
// network even when the instance is a tree).
func PathProb(pi *ProbInstance, p Path, o string) (float64, error) {
	return bayes.PathProb(pi, p, o)
}

// EncodeJSON / DecodeJSON serialize instances as JSON.
func EncodeJSON(w io.Writer, pi *ProbInstance) error { return codec.EncodeJSON(w, pi) }

// DecodeJSON reads an instance from JSON.
func DecodeJSON(r io.Reader) (*ProbInstance, error) { return codec.DecodeJSON(r) }

// EncodeText serializes an instance in the compact text format.
func EncodeText(w io.Writer, pi *ProbInstance) error { return codec.EncodeText(w, pi) }

// DecodeText reads an instance from the compact text format.
func DecodeText(r io.Reader) (*ProbInstance, error) { return codec.DecodeText(r) }

// GenerateWorkload builds a Section 7.1 experimental instance.
func GenerateWorkload(cfg GenConfig) (*Workload, error) { return gen.Generate(cfg) }

// GenerateWidthBomb builds a small adversarial DAG whose inference cost
// is astronomical — the governor test workload.
func GenerateWidthBomb(cfg BombConfig) (*ProbInstance, error) { return gen.WidthBomb(cfg) }

// Equal reports whether two probabilistic instances are identical within
// the probability tolerance.
func Equal(a, b *ProbInstance, tol float64) bool { return core.Equal(a, b, tol) }

// NewIntervalInstance wraps a weak instance for interval-probability use.
func NewIntervalInstance(w *WeakInstance) *IntervalInstance { return interval.New(w) }

// NewIntervalOPF returns an empty interval OPF.
func NewIntervalOPF() *IntervalOPF { return interval.NewOPF() }

// NewIntervalVPF returns an empty interval VPF.
func NewIntervalVPF() *IntervalVPF { return interval.NewVPF() }

// IntervalFromPoint lifts a point instance to degenerate intervals.
func IntervalFromPoint(pi *ProbInstance) *IntervalInstance { return interval.FromPoint(pi) }

// IntervalChainBound returns the tight probability interval of a
// root-anchored object chain over an interval instance.
func IntervalChainBound(in *IntervalInstance, chain []string) (Bound, error) {
	return interval.ChainBound(in, chain)
}

// IntervalPointBound returns the tight interval of P(o ∈ p) on a
// tree-structured interval instance.
func IntervalPointBound(in *IntervalInstance, p Path, o string) (Bound, error) {
	return interval.PointBound(in, p, o)
}

// IntervalExistsBound returns the tight interval of P(∃o. o ∈ p).
func IntervalExistsBound(in *IntervalInstance, p Path) (Bound, error) {
	return interval.ExistsBound(in, p)
}

// IntervalValueExistsBound returns the interval of P(∃ leaf o ∈ p with
// val(o) = v).
func IntervalValueExistsBound(in *IntervalInstance, p Path, v string) (Bound, error) {
	return interval.ValueExistsBound(in, p, v)
}

// EvalPXQL parses and executes one pxql statement against an instance, on
// a throwaway Engine. For repeated statements against the same instance,
// keep the Engine, which caches the support structures between queries.
// ESTIMATE n draws the engine's samples: for n ≥ 8, eight deterministic
// streams (seeds 1–8) instead of the single seed-1 stream this function
// used before it shared the engine's evaluator, so an estimate's digits
// differ from those releases while staying reproducible and within its
// reported standard error of the exact answer.
func EvalPXQL(pi *ProbInstance, statement string) (*PXQLResult, error) {
	return engine.New(pi).Run(context.Background(), statement)
}

// ParsePXQL parses one pxql statement.
func ParsePXQL(statement string) (PXQLQuery, error) { return pxql.Parse(statement) }

// Engine executes queries against one immutable instance while caching
// the derived structures (path index, compiled Bayesian network, existence
// marginals) across queries; the tree classification is memoized by the
// instance itself. It is safe for concurrent use, context-aware, and keeps
// per-engine metrics.
type Engine = engine.Engine

// EngineOption configures NewEngine.
type EngineOption = engine.Option

// WithWorkers bounds an engine's batch worker pool.
func WithWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// NewEngine wraps an instance in a query engine. The instance must not be
// mutated afterwards.
func NewEngine(pi *ProbInstance, opts ...EngineOption) *Engine {
	return engine.New(pi, opts...)
}

// EngineBatchResult pairs one statement of an Engine.RunBatch with its
// outcome.
type EngineBatchResult = engine.BatchResult
