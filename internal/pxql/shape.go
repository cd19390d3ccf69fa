package pxql

import "strings"

// Statement shapes: the coarse cost classes the server's telemetry tracks
// per statement. PXML inference cost varies by orders of magnitude with
// the statement's shape — a cached point probability is nanoseconds while
// enumeration or cold DAG inference can run for seconds — so latency
// percentiles are only meaningful per shape.
const (
	ShapeProject  = "project"   // PROJECT / SINGLE / DESCEND (ancestor, single, descendant projection)
	ShapeSelect   = "select"    // SELECT (object / value / cardinality selection)
	ShapeProduct  = "product"   // binary algebra (cartesian product, join)
	ShapePoint    = "point"     // PROB point / value / object / CHAIN (single-object inference)
	ShapeExists   = "exists"    // PROB EXISTS / PROB VAL (path-existence inference)
	ShapeEnum     = "enumerate" // WORLDS / TOPK / COUNT / MARGINALS (world-space work)
	ShapeEstimate = "estimate"  // ESTIMATE (Monte-Carlo sampling)
	ShapeStats    = "stats"     // STATS (instance summary)
	ShapeOther    = "other"     // unknown or unparsable statements
)

// Shape returns the parsed query's statement shape.
func (q Query) Shape() string { return shapeOfOp(q.Op) }

// shapeOfOp maps a canonical Query.Op to its shape.
func shapeOfOp(op string) string {
	switch op {
	case "project", "single", "descend":
		return ShapeProject
	case "select":
		return ShapeSelect
	case "product", "join":
		return ShapeProduct
	case "prob-point", "prob-object", "chain":
		return ShapePoint
	case "prob-exists", "prob-value":
		return ShapeExists
	case "worlds", "topk", "count", "marginals":
		return ShapeEnum
	case "estimate-exists", "estimate-point":
		return ShapeEstimate
	case "stats":
		return ShapeStats
	}
	return ShapeOther
}

// ClassifyShape determines a statement's shape lexically — first keyword,
// plus the PROB sub-form — without a full parse, so callers on the hot
// path (the engine's per-statement latency hook) can classify a cache-hit
// statement without paying Parse again. It agrees with Query.Shape for
// every statement Parse accepts.
func ClassifyShape(statement string) string {
	kw, rest := nextField(statement)
	switch strings.ToUpper(kw) {
	case "PROJECT", "SINGLE", "DESCEND":
		return ShapeProject
	case "SELECT":
		return ShapeSelect
	case "PRODUCT", "JOIN":
		return ShapeProduct
	case "PROB":
		sub, _ := nextField(rest)
		switch strings.ToUpper(sub) {
		case "EXISTS", "VAL", "VAL(":
			return ShapeExists
		default:
			if strings.HasPrefix(strings.ToUpper(sub), "VAL(") {
				return ShapeExists
			}
			return ShapePoint
		}
	case "CHAIN":
		return ShapePoint
	case "WORLDS", "TOPK", "COUNT", "MARGINALS":
		return ShapeEnum
	case "ESTIMATE":
		return ShapeEstimate
	case "STATS":
		return ShapeStats
	}
	return ShapeOther
}

// nextField returns the first whitespace-delimited field of s and the
// remainder, without allocating a full Fields slice.
func nextField(s string) (field, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' })
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i:]
}
