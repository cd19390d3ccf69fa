package query

import (
	"context"

	"pxml/internal/core"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
)

// The *IndexedCtx functions below answer the same Section 6.2 queries as
// their index-free namesakes for a caller (the engine package) that holds
// the instance's path index and runs many queries against one immutable
// instance. Every plan is read from that index either way — the weak
// instance graph keeps it — so what these skip is the tree check.
//
// They honour a context-carried resource governor (govern.From): the ε
// recursion charges its OPF scans against the query's step budget and
// polls cancellation at each kept object.
//
// Precondition: the instance's weak graph must be a tree; the variants do
// not check. The check they skip is a read of the verdict the instance
// memoizes with its graph (DESIGN §19), so they save a lookup, not a walk.

// PointQueryIndexedCtx is PointQuery through a prebuilt index, under
// ctx's governor.
func PointQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, o model.ObjectID) (float64, error) {
	return epsilonRoot(pi, idx.Graph(), p, map[model.ObjectID]bool{o: true}, nil, govern.From(ctx))
}

// ExistsQueryIndexedCtx is ExistsQuery through a prebuilt index, under
// ctx's governor.
func ExistsQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path) (float64, error) {
	return epsilonRoot(pi, idx.Graph(), p, nil, nil, govern.From(ctx))
}

// ValueExistsQueryIndexedCtx is ValueExistsQuery through a prebuilt index,
// under ctx's governor.
func ValueExistsQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, v model.Value) (float64, error) {
	success := func(o model.ObjectID) float64 {
		if vpf := pi.VPF(o); vpf != nil {
			return vpf.Prob(v)
		}
		return 0
	}
	return epsilonRoot(pi, idx.Graph(), p, nil, success, govern.From(ctx))
}

// ValuePointQueryIndexedCtx is ValuePointQuery through a prebuilt index,
// under ctx's governor.
func ValuePointQueryIndexedCtx(ctx context.Context, pi *core.ProbInstance, idx *pathexpr.Index, p pathexpr.Path, o model.ObjectID, v model.Value) (float64, error) {
	success := func(m model.ObjectID) float64 {
		if vpf := pi.VPF(m); vpf != nil {
			return vpf.Prob(v)
		}
		return 0
	}
	return epsilonRoot(pi, idx.Graph(), p, map[model.ObjectID]bool{o: true}, success, govern.From(ctx))
}
