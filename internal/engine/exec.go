package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pxml/internal/algebra"
	"pxml/internal/core"
	"pxml/internal/enumerate"
	"pxml/internal/govern"
	"pxml/internal/pathexpr"
	"pxml/internal/pxql"
	"pxml/internal/query"
)

// evaluate is the one boundary every evaluation crosses on its way to a
// kernel: the engine's deadline and budget on a fresh governor (governed),
// the upfront admission check for op, the cost observer, and panic
// containment around eval. With metered set it also counts the statement
// and records its latency, error outcome and shape — Exec and the typed
// Prob* methods pass true; Run passes false, because it has already metered
// the statement around its result-cache lookup, so each statement is
// metered exactly once whichever way it came in.
func (e *Engine) evaluate(ctx context.Context, metered bool, shape, op string, top int, eval func(context.Context) error) (err error) {
	if metered {
		start := time.Now()
		e.queries.Inc()
		defer func() {
			d := time.Since(start)
			e.finish(d, err)
			if e.shapeObs != nil {
				e.shapeObs(shape, d)
			}
		}()
	}
	if err = ctx.Err(); err != nil {
		return err
	}
	ctx, g := e.governed(ctx)
	if err = e.admit(op, top, g); err != nil {
		return err
	}
	if e.costObs != nil {
		defer func() { e.costObs(shape, g.Estimate(), g.Steps()) }()
	}
	defer recoverQueryPanic(&err)
	return eval(ctx)
}

// Exec executes a parsed statement (see Run for the context contract).
func (e *Engine) Exec(ctx context.Context, q pxql.Query) (*pxql.Result, error) {
	return e.exec(ctx, true, q)
}

func (e *Engine) exec(ctx context.Context, metered bool, q pxql.Query) (res *pxql.Result, err error) {
	err = e.evaluate(ctx, metered, q.Shape(), q.Op, q.Top, func(ctx context.Context) (err error) {
		res, err = e.dispatch(ctx, q)
		return err
	})
	return res, err
}

// dispatch evaluates one statement under the governor evaluate put on ctx.
// The probabilistic statements go through the engine's routed primitives
// (pointProb and friends: ε recursion on a tree, the compiled network on a
// DAG); the algebra, counting and enumeration statements have one route
// each and read e.pi directly — what they need memoized (the weak graph
// and its tree verdict) the instance memoizes itself, and an
// instance-valued result shares with e.pi whatever the operator left
// unchanged (core.ProbInstance.Overlay). The algebra statements charge the
// result's size to the governor; the enumeration, top-k, count and
// sampling kernels poll it at their loop boundaries.
func (e *Engine) dispatch(ctx context.Context, q pxql.Query) (*pxql.Result, error) {
	gov := govern.From(ctx)
	if err := gov.Err(); err != nil {
		return nil, err
	}
	switch q.Op {
	case "project", "single", "descend":
		op := projections[q.Op]
		out, err := op.apply(e.pi, q.Path)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &pxql.Result{Instance: out, Text: fmt.Sprintf("%s_%s: %d objects", op.symbol, q.Path, out.NumObjects())}, nil
	case "select":
		out, p, err := algebra.Select(e.pi, q.Cond)
		if err != nil {
			return nil, err
		}
		if err := gov.Step(int64(out.NumObjects())); err != nil {
			return nil, err
		}
		return &pxql.Result{Instance: out, Prob: &p, Text: withProb(p, "σ(", q.Cond.String(), "): P = ")}, nil
	case "prob-point":
		p, err := e.pointProb(ctx, q.Path, q.Object)
		return scalar(p, err, "P(", q.Object, " ∈ ", q.Path.String(), ") = ")
	case "prob-exists":
		p, err := e.existsProb(ctx, q.Path)
		return scalar(p, err, "P(∃ ", q.Path.String(), ") = ")
	case "prob-value":
		p, err := e.valueExistsProb(ctx, q.Path, q.Value)
		return scalar(p, err, "P(val(", q.Path.String(), ") = ", q.Value, ") = ")
	case "prob-object":
		p, err := e.objectProb(ctx, q.Object)
		return scalar(p, err, "P(", q.Object, " exists) = ")
	case "chain":
		p, err := query.ChainProb(e.pi, q.Chain)
		return scalar(p, err, "P(chain ", strings.Join(q.Chain, "."), ") = ")
	case "count":
		d, err := query.CountDistribution(ctx, e.pi, q.Path)
		if err != nil {
			return nil, err
		}
		mean, maxK := 0.0, 0
		for k, pr := range d {
			mean += float64(k) * pr
			if k > maxK {
				maxK = k
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "E[count(%s)] = %.6f\n", q.Path, mean)
		for k := 0; k <= maxK; k++ {
			if d[k] > 0 {
				fmt.Fprintf(&b, "P(count=%d) = %.9f\n", k, d[k])
			}
		}
		return &pxql.Result{Prob: &mean, Text: strings.TrimRight(b.String(), "\n")}, nil
	case "marginals":
		marg, err := e.marginals()
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		objs := e.pi.Objects()
		sort.Strings(objs)
		for _, o := range objs {
			fmt.Fprintf(&b, "%s\t%.9f\n", o, marg[o])
		}
		return &pxql.Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "worlds":
		gi, err := enumerate.EnumerateCtx(ctx, e.pi, 0)
		if err != nil {
			return nil, err
		}
		worlds := gi.Worlds()
		if q.Top > 0 && q.Top < len(worlds) {
			worlds = worlds[:q.Top]
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d worlds, total probability %.9f\n", gi.Len(), gi.TotalMass())
		writeWorlds(&b, worlds)
		return &pxql.Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "topk":
		worlds, err := enumerate.TopK(ctx, e.pi, q.Top, 0)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		writeWorlds(&b, worlds)
		return &pxql.Result{Text: strings.TrimRight(b.String(), "\n")}, nil
	case "estimate-exists", "estimate-point":
		est, err := e.estimate(ctx, q)
		if err != nil {
			return nil, err
		}
		return &pxql.Result{Prob: &est.P, Text: "P ≈ " + est.String()}, nil
	case "stats":
		st := e.pi.ComputeStats()
		return &pxql.Result{Text: fmt.Sprintf(
			"root=%s objects=%d edges=%d leaves=%d depth=%d opf-entries=%d vpf-entries=%d tree=%v",
			e.pi.Root(), st.Objects, st.Edges, st.Leaves, st.Depth, st.OPFEntries, st.VPFEntries, e.pi.IsTree())}, nil
	default:
		return nil, fmt.Errorf("pxql: unknown operation %q", q.Op)
	}
}

// projections are the three projection statements: the operator and the
// symbol its answer is rendered with.
var projections = map[string]struct {
	symbol string
	apply  func(*core.ProbInstance, pathexpr.Path) (*core.ProbInstance, error)
}{
	"project": {"Λ", algebra.AncestorProject},
	"single":  {"Π", algebra.SingleProject},
	"descend": {"Δ", algebra.DescendantProject},
}

// scalar renders a probability-valued answer, text followed by p, or
// passes the error on.
func scalar(p float64, err error, text ...string) (*pxql.Result, error) {
	if err != nil {
		return nil, err
	}
	return &pxql.Result{Prob: &p, Text: withProb(p, text...)}, nil
}

// withProb is the concatenation of text and p to nine decimals, the bytes
// fmt's %.9f writes, built in one buffer.
func withProb(p float64, text ...string) string {
	n := len("0.000000000")
	for _, s := range text {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range text {
		b.WriteString(s)
	}
	var digits [24]byte
	b.Write(strconv.AppendFloat(digits[:0], p, 'f', 9, 64))
	return b.String()
}

// writeWorlds renders possible worlds one per line.
func writeWorlds(b *strings.Builder, worlds []enumerate.World) {
	for _, w := range worlds {
		fmt.Fprintf(b, "p=%.9f objects=%v\n", w.P, w.S.Objects())
	}
}
