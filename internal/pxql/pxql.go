// Package pxql implements a small textual query language over PXML
// probabilistic instances, wrapping the paper's algebra and queries in the
// spirit of its Section 8 discussion of XPath/XQuery (path expressions
// locate objects; the operators manipulate whole probabilistic instances).
//
// Statements (keywords are case-insensitive; paths use the Definition 5.1
// dotted form):
//
//	PROJECT R.book.author                 ancestor projection Λ_p
//	SINGLE  R.book.author                 single projection (extension)
//	DESCEND R.book.author                 descendant projection (extension)
//	SELECT R.book = B1 [AND ...]          object selection σ (conjunctions allowed)
//	SELECT VAL(R.book.title) = Lore       value selection
//	SELECT CARD(R.book = B1, author) IN [1,2]
//	                                      cardinality selection
//	PROB R.book.author = A1               point query P(o ∈ p)
//	PROB EXISTS R.book.author             existence query
//	PROB VAL(R.book.title) = Lore         value-existence query
//	PROB OBJECT A1                        existence marginal (BN; works on DAGs)
//	CHAIN R.B1.A1                         chain probability (object ids!)
//	COUNT <path>                          distribution of |{o : o ∈ p}| with its
//	                                      expectation (tree instances)
//	MARGINALS                             P(o exists) for every object
//	WORLDS [n]                            possible worlds (top n by probability)
//	TOPK n                                the n most probable worlds via
//	                                      best-first search (no full enumeration)
//	ESTIMATE n EXISTS <path>              Monte-Carlo estimate of P(∃o. o ∈ p)
//	ESTIMATE n <path> = <obj>             Monte-Carlo estimate of P(o ∈ p)
//	                                      (n forward samples; reproducible seed)
//	STATS                                 instance summary
//
// Exec returns a Result whose Instance field is set for algebra statements
// and whose Prob/Text fields carry scalar answers and rendered output.
package pxql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"pxml/internal/algebra"
	"pxml/internal/bayes"
	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/query"
	"pxml/internal/sets"
)

// execErr is the cooperative pre-dispatch check: the governor when one
// is attached, the bare context otherwise.
func execErr(ctx context.Context, gov *govern.Governor) error {
	if gov != nil {
		return gov.Err()
	}
	return ctx.Err()
}

// Query is a parsed statement.
type Query struct {
	// Op is the canonical operation name: project, single, descend,
	// select, prob-point, prob-exists, prob-value, prob-object, chain,
	// marginals, worlds, stats.
	Op string
	// Path is set for path-based operations.
	Path pathexpr.Path
	// Cond is set for selections.
	Cond algebra.Condition
	// Object/Value parameterize prob queries.
	Object string
	Value  string
	// Chain holds the object chain for CHAIN.
	Chain []string
	// Top bounds WORLDS output (0 = all).
	Top int
}

// Result is the outcome of executing a query.
type Result struct {
	// Instance is the resulting probabilistic instance for algebra
	// statements (nil otherwise).
	Instance *core.ProbInstance
	// Prob carries a scalar probability when the statement produces one.
	Prob *float64
	// Text is a rendered, human-readable answer.
	Text string
}

// Parse parses one statement.
func Parse(input string) (Query, error) {
	fields := strings.Fields(input)
	if len(fields) == 0 {
		return Query{}, fmt.Errorf("pxql: empty statement")
	}
	kw := strings.ToUpper(fields[0])
	rest := fields[1:]
	switch kw {
	case "PROJECT", "SINGLE", "DESCEND":
		if len(rest) != 1 {
			return Query{}, fmt.Errorf("pxql: %s needs exactly one path expression", kw)
		}
		p, err := pathexpr.Parse(rest[0])
		if err != nil {
			return Query{}, err
		}
		return Query{Op: strings.ToLower(kw), Path: p}, nil
	case "SELECT":
		cond, err := parseCondition(strings.Join(rest, " "))
		if err != nil {
			return Query{}, err
		}
		return Query{Op: "select", Cond: cond}, nil
	case "PROB":
		return parseProb(rest)
	case "CHAIN":
		if len(rest) != 1 {
			return Query{}, fmt.Errorf("pxql: CHAIN needs one dotted object chain")
		}
		chain := strings.Split(rest[0], ".")
		return Query{Op: "chain", Chain: chain}, nil
	case "COUNT":
		if len(rest) != 1 {
			return Query{}, fmt.Errorf("pxql: COUNT needs one path expression")
		}
		p, err := pathexpr.Parse(rest[0])
		if err != nil {
			return Query{}, err
		}
		return Query{Op: "count", Path: p}, nil
	case "MARGINALS":
		return Query{Op: "marginals"}, nil
	case "WORLDS":
		q := Query{Op: "worlds", Top: 10}
		if len(rest) == 1 {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 0 {
				return Query{}, fmt.Errorf("pxql: bad WORLDS count %q", rest[0])
			}
			q.Top = n
		} else if len(rest) > 1 {
			return Query{}, fmt.Errorf("pxql: WORLDS takes at most one count")
		}
		return q, nil
	case "ESTIMATE":
		if len(rest) < 2 {
			return Query{}, fmt.Errorf("pxql: ESTIMATE needs a count and a condition")
		}
		n, err := strconv.Atoi(rest[0])
		if err != nil || n <= 0 {
			return Query{}, fmt.Errorf("pxql: bad ESTIMATE count %q", rest[0])
		}
		sub, err := parseProb(rest[1:])
		if err != nil {
			return Query{}, err
		}
		if sub.Op != "prob-exists" && sub.Op != "prob-point" {
			return Query{}, fmt.Errorf("pxql: ESTIMATE supports EXISTS <path> or <path> = <obj>")
		}
		sub.Op = "estimate-" + strings.TrimPrefix(sub.Op, "prob-")
		sub.Top = n
		return sub, nil
	case "TOPK":
		if len(rest) != 1 {
			return Query{}, fmt.Errorf("pxql: TOPK needs a count")
		}
		n, err := strconv.Atoi(rest[0])
		if err != nil || n <= 0 {
			return Query{}, fmt.Errorf("pxql: bad TOPK count %q", rest[0])
		}
		return Query{Op: "topk", Top: n}, nil
	case "STATS":
		return Query{Op: "stats"}, nil
	default:
		return Query{}, fmt.Errorf("pxql: unknown statement %q", fields[0])
	}
}

// parseCondition parses the selection condition grammar, including AND
// conjunctions of object conditions.
func parseCondition(s string) (algebra.Condition, error) {
	parts := splitCaseInsensitive(s, " AND ")
	conds := make([]algebra.Condition, 0, len(parts))
	for _, part := range parts {
		c, err := parseAtomCondition(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
	}
	if len(conds) == 1 {
		return conds[0], nil
	}
	return algebra.Conjunction{Conds: conds}, nil
}

func parseAtomCondition(s string) (algebra.Condition, error) {
	upper := strings.ToUpper(s)
	switch {
	case strings.HasPrefix(upper, "VAL("):
		inner, value, err := splitCall(s, "VAL")
		if err != nil {
			return nil, err
		}
		p, err := pathexpr.Parse(inner)
		if err != nil {
			return nil, err
		}
		return algebra.ValueCondition{Path: p, Value: value}, nil
	case strings.HasPrefix(upper, "CARD("):
		// CARD(<path> = <obj>, <label>) IN [a,b]
		open := strings.Index(s, "(")
		close := strings.Index(s, ")")
		if open < 0 || close < open {
			return nil, fmt.Errorf("pxql: malformed CARD condition %q", s)
		}
		args := strings.Split(s[open+1:close], ",")
		if len(args) != 2 {
			return nil, fmt.Errorf("pxql: CARD needs (path = object, label)")
		}
		eq := strings.Split(args[0], "=")
		if len(eq) != 2 {
			return nil, fmt.Errorf("pxql: CARD needs path = object")
		}
		p, err := pathexpr.Parse(strings.TrimSpace(eq[0]))
		if err != nil {
			return nil, err
		}
		obj := strings.TrimSpace(eq[1])
		label := strings.TrimSpace(args[1])
		tail := strings.TrimSpace(s[close+1:])
		tu := strings.ToUpper(tail)
		if !strings.HasPrefix(tu, "IN") {
			return nil, fmt.Errorf("pxql: CARD needs IN [a,b]")
		}
		rng := strings.Trim(strings.TrimSpace(tail[2:]), "[]")
		nums := strings.Split(rng, ",")
		if len(nums) != 2 {
			return nil, fmt.Errorf("pxql: CARD range must be [a,b]")
		}
		lo, err1 := strconv.Atoi(strings.TrimSpace(nums[0]))
		hi, err2 := strconv.Atoi(strings.TrimSpace(nums[1]))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pxql: bad CARD range %q", rng)
		}
		return algebra.CardCondition{Path: p, Object: obj, Label: label, Range: sets.Interval{Min: lo, Max: hi}}, nil
	default:
		eq := strings.Split(s, "=")
		if len(eq) != 2 {
			return nil, fmt.Errorf("pxql: condition %q must be path = object", s)
		}
		p, err := pathexpr.Parse(strings.TrimSpace(eq[0]))
		if err != nil {
			return nil, err
		}
		return algebra.ObjectCondition{Path: p, Object: strings.TrimSpace(eq[1])}, nil
	}
}

func parseProb(rest []string) (Query, error) {
	if len(rest) == 0 {
		return Query{}, fmt.Errorf("pxql: PROB needs arguments")
	}
	head := strings.ToUpper(rest[0])
	switch {
	case head == "EXISTS":
		if len(rest) != 2 {
			return Query{}, fmt.Errorf("pxql: PROB EXISTS needs one path")
		}
		p, err := pathexpr.Parse(rest[1])
		if err != nil {
			return Query{}, err
		}
		return Query{Op: "prob-exists", Path: p}, nil
	case head == "OBJECT":
		if len(rest) != 2 {
			return Query{}, fmt.Errorf("pxql: PROB OBJECT needs one object id")
		}
		return Query{Op: "prob-object", Object: rest[1]}, nil
	case strings.HasPrefix(head, "VAL("):
		inner, value, err := splitCall(strings.Join(rest, " "), "VAL")
		if err != nil {
			return Query{}, err
		}
		p, err := pathexpr.Parse(inner)
		if err != nil {
			return Query{}, err
		}
		return Query{Op: "prob-value", Path: p, Value: value}, nil
	default:
		// PROB <path> = <obj>
		joined := strings.Join(rest, " ")
		eq := strings.Split(joined, "=")
		if len(eq) != 2 {
			return Query{}, fmt.Errorf("pxql: PROB needs path = object")
		}
		p, err := pathexpr.Parse(strings.TrimSpace(eq[0]))
		if err != nil {
			return Query{}, err
		}
		return Query{Op: "prob-point", Path: p, Object: strings.TrimSpace(eq[1])}, nil
	}
}

// splitCall parses `KW(<inner>) = <value>` and returns inner and value.
func splitCall(s, kw string) (inner, value string, err error) {
	open := strings.Index(s, "(")
	close := strings.Index(s, ")")
	if open < 0 || close < open {
		return "", "", fmt.Errorf("pxql: malformed %s(...) in %q", kw, s)
	}
	inner = strings.TrimSpace(s[open+1 : close])
	tail := strings.TrimSpace(s[close+1:])
	if !strings.HasPrefix(tail, "=") {
		return "", "", fmt.Errorf("pxql: %s(...) must be followed by = value", kw)
	}
	value = strings.TrimSpace(tail[1:])
	if value == "" {
		return "", "", fmt.Errorf("pxql: missing value after %s(...)", kw)
	}
	return inner, value, nil
}

func splitCaseInsensitive(s, sep string) []string {
	upper := strings.ToUpper(s)
	sepU := strings.ToUpper(sep)
	var parts []string
	start := 0
	for {
		i := strings.Index(upper[start:], sepU)
		if i < 0 {
			parts = append(parts, s[start:])
			return parts
		}
		parts = append(parts, s[start:start+i])
		start += i + len(sep)
	}
}

// Backend supplies the probabilistic primitives Exec relies on, so that a
// caching query engine (internal/engine) can substitute precomputed
// structures — path indexes, compiled Bayesian networks, memoized
// marginals — without duplicating statement dispatch or answer rendering.
// The direct (uncached) backend re-derives everything per call, exactly as
// Exec always did.
type Backend interface {
	// PointProb returns P(o ∈ p), falling back to BN inference on DAGs.
	PointProb(p pathexpr.Path, o model.ObjectID) (float64, error)
	// ExistsProb returns P(∃o. o ∈ p), falling back to BN inference on DAGs.
	ExistsProb(p pathexpr.Path) (float64, error)
	// ValueExistsProb returns P(∃ leaf o ∈ p with val(o) = v) (tree only).
	ValueExistsProb(p pathexpr.Path, v model.Value) (float64, error)
	// ObjectProb returns the existence marginal P(o exists) (DAG-capable).
	ObjectProb(o model.ObjectID) (float64, error)
	// Marginals returns P(o exists) for every object (tree only).
	Marginals() (map[model.ObjectID]float64, error)
	// Estimate Monte-Carlo-estimates P(∃o. o ∈ p) (op "exists") or
	// P(o ∈ p) (op "point") from n forward samples.
	Estimate(op string, p pathexpr.Path, o model.ObjectID, n int) (enumerate.Estimate, error)
}

// directBackend is the uncached Backend: every call re-derives its support
// structures from the instance.
type directBackend struct{ pi *core.ProbInstance }

func (d directBackend) PointProb(p pathexpr.Path, o model.ObjectID) (float64, error) {
	pr, err := query.PointQuery(d.pi, p, o)
	if errors.Is(err, query.ErrNotTree) {
		pr, err = bayes.PathProb(d.pi, p, o)
	}
	return pr, err
}

func (d directBackend) ExistsProb(p pathexpr.Path) (float64, error) {
	pr, err := query.ExistsQuery(d.pi, p)
	if errors.Is(err, query.ErrNotTree) {
		pr, err = bayes.PathProb(d.pi, p, "")
	}
	return pr, err
}

func (d directBackend) ValueExistsProb(p pathexpr.Path, v model.Value) (float64, error) {
	return query.ValueExistsQuery(d.pi, p, v)
}

func (d directBackend) ObjectProb(o model.ObjectID) (float64, error) {
	net, err := bayes.Compile(d.pi)
	if err != nil {
		return 0, err
	}
	return net.ProbExists(o)
}

func (d directBackend) Marginals() (map[model.ObjectID]float64, error) {
	return query.ExistenceMarginals(d.pi)
}

func (d directBackend) Estimate(op string, p pathexpr.Path, o model.ObjectID, n int) (enumerate.Estimate, error) {
	r := rand.New(rand.NewSource(1)) // fixed seed: reproducible estimates
	pred := EstimatePred(op, p, o)
	return enumerate.EstimateProb(d.pi, pred, n, r)
}

// EstimatePred builds the possible-world predicate of an ESTIMATE
// statement: op is "exists" or "point". Shared with backends that sample
// in parallel.
func EstimatePred(op string, p pathexpr.Path, o model.ObjectID) func(*model.Instance) bool {
	return func(s *model.Instance) bool {
		if op == "exists" {
			return len(p.Targets(s.Graph())) > 0
		}
		return p.Matches(s.Graph(), o)
	}
}

// Exec runs a parsed query against an instance. Tree-only fast paths fall
// back to exact DAG routes where one exists (BN inference for point and
// existence queries); otherwise the tree requirement surfaces as an error.
func Exec(pi *core.ProbInstance, q Query) (*Result, error) {
	return ExecWith(pi, q, directBackend{pi})
}

// ExecWith is Exec with the probabilistic primitives supplied by b; the
// algebra, enumeration and stats statements still evaluate against pi
// directly: what they need memoized (the weak graph and its tree verdict)
// pi memoizes itself, and an instance-valued result shares with pi whatever
// the operator left unchanged (core.ProbInstance.Overlay) instead of
// copying it.
func ExecWith(pi *core.ProbInstance, q Query, b Backend) (*Result, error) {
	return ExecWithCtx(context.Background(), pi, q, b)
}

// ExecWithCtx is ExecWith under a context-carried resource governor
// (govern.From): the enumeration, top-k, and count paths cooperate at
// their loop boundaries, the algebra paths check the budget between
// operator applications and charge each result instance's size, and
// the probabilistic primitives inherit whatever governance the backend
// itself threads (the engine backend passes the same ctx down to the
// ε, BN, and sampling kernels).
func ExecWithCtx(ctx context.Context, pi *core.ProbInstance, q Query, b Backend) (*Result, error) {
	gov := govern.From(ctx)
	if err := execErr(ctx, gov); err != nil {
		return nil, err
	}
	switch q.Op {
	case "project":
		out, err := algebra.AncestorProject(pi, q.Path)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &Result{Instance: out, Text: fmt.Sprintf("Λ_%s: %d objects", q.Path, out.NumObjects())}, nil
	case "single":
		out, err := algebra.SingleProject(pi, q.Path)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &Result{Instance: out, Text: fmt.Sprintf("Π_%s: %d objects", q.Path, out.NumObjects())}, nil
	case "descend":
		out, err := algebra.DescendantProject(pi, q.Path)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &Result{Instance: out, Text: fmt.Sprintf("Δ_%s: %d objects", q.Path, out.NumObjects())}, nil
	case "select":
		out, p, err := algebra.Select(pi, q.Cond)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &Result{Instance: out, Prob: &p, Text: fmt.Sprintf("σ(%s): P = %.9f", q.Cond, p)}, nil
	case "prob-point":
		p, err := b.PointProb(q.Path, q.Object)
		if err != nil {
			return nil, err
		}
		return &Result{Prob: &p, Text: fmt.Sprintf("P(%s ∈ %s) = %.9f", q.Object, q.Path, p)}, nil
	case "prob-exists":
		p, err := b.ExistsProb(q.Path)
		if err != nil {
			return nil, err
		}
		return &Result{Prob: &p, Text: fmt.Sprintf("P(∃ %s) = %.9f", q.Path, p)}, nil
	case "prob-value":
		p, err := b.ValueExistsProb(q.Path, q.Value)
		if err != nil {
			return nil, err
		}
		return &Result{Prob: &p, Text: fmt.Sprintf("P(val(%s) = %s) = %.9f", q.Path, q.Value, p)}, nil
	case "prob-object":
		p, err := b.ObjectProb(q.Object)
		if err != nil {
			return nil, err
		}
		return &Result{Prob: &p, Text: fmt.Sprintf("P(%s exists) = %.9f", q.Object, p)}, nil
	case "chain":
		p, err := query.ChainProb(pi, q.Chain)
		if err != nil {
			return nil, err
		}
		return &Result{Prob: &p, Text: fmt.Sprintf("P(chain %s) = %.9f", strings.Join(q.Chain, "."), p)}, nil
	case "count":
		d, err := query.CountDistributionCtx(ctx, pi, q.Path)
		if err != nil {
			return nil, err
		}
		e := 0.0
		for k, pr := range d {
			e += float64(k) * pr
		}
		maxK := 0
		for k := range d {
			if k > maxK {
				maxK = k
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "E[count(%s)] = %.6f\n", q.Path, e)
		for k := 0; k <= maxK; k++ {
			if d[k] > 0 {
				fmt.Fprintf(&b, "P(count=%d) = %.9f\n", k, d[k])
			}
		}
		return &Result{Prob: &e, Text: strings.TrimRight(b.String(), "\n")}, nil
	case "marginals":
		marg, err := b.Marginals()
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		objs := pi.Objects()
		sort.Strings(objs)
		for _, o := range objs {
			fmt.Fprintf(&b, "%s\t%.9f\n", o, marg[o])
		}
		return &Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "worlds":
		gi, err := enumerate.EnumerateCtx(ctx, pi, 0)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d worlds, total probability %.9f\n", gi.Len(), gi.TotalMass())
		for i, w := range gi.Worlds() {
			if q.Top > 0 && i == q.Top {
				break
			}
			fmt.Fprintf(&b, "p=%.9f objects=%v\n", w.P, w.S.Objects())
		}
		return &Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "estimate-exists", "estimate-point":
		est, err := b.Estimate(strings.TrimPrefix(q.Op, "estimate-"), q.Path, q.Object, q.Top)
		if err != nil {
			return nil, err
		}
		p := est.P
		return &Result{Prob: &p, Text: fmt.Sprintf("P ≈ %s", est)}, nil
	case "topk":
		worlds, err := enumerate.TopKCtx(ctx, pi, q.Top, 0)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		for _, w := range worlds {
			fmt.Fprintf(&b, "p=%.9f objects=%v\n", w.P, w.S.Objects())
		}
		return &Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "stats":
		st := pi.ComputeStats()
		return &Result{Text: fmt.Sprintf(
			"root=%s objects=%d edges=%d leaves=%d depth=%d opf-entries=%d vpf-entries=%d tree=%v",
			pi.Root(), st.Objects, st.Edges, st.Leaves, st.Depth, st.OPFEntries, st.VPFEntries, pi.IsTree())}, nil
	default:
		return nil, fmt.Errorf("pxql: unknown operation %q", q.Op)
	}
}

// Eval parses and executes a statement in one step.
func Eval(pi *core.ProbInstance, statement string) (*Result, error) {
	q, err := Parse(statement)
	if err != nil {
		return nil, err
	}
	return Exec(pi, q)
}
