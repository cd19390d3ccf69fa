package pxql

import (
	"bytes"
	"strings"
	"unicode"
	"unicode/utf8"
)

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

// Shapes lists every statement shape; a shape's position in it is its
// ShapeIndex, so per-shape state can live in a [NumShapes] array.
var Shapes = [...]string{
	ShapeProject, ShapeSelect, ShapeProduct, ShapePoint, ShapeExists,
	ShapeEnum, ShapeEstimate, ShapeStats, ShapeOther,
}

// NumShapes is len(Shapes).
const NumShapes = len(Shapes)

// ShapeIndex returns shape's position in Shapes (ShapeOther's for a string
// that is no shape).
func ShapeIndex(shape string) int {
	for i, s := range Shapes {
		if s == shape {
			return i
		}
	}
	return NumShapes - 1
}

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
// plus the PROB sub-form — without a full parse and without allocating,
// for a caller that needs a shape without paying Parse. (The server no
// longer does: the engine reads a shape off its own parse, keeps it with
// the cached result, and hands it to the breaker on a miss.) It splits and
// upper-cases fields exactly as Parse does, so it agrees with Query.Shape
// for every statement Parse accepts.
func ClassifyShape(statement string) string {
	kw, rest := nextField(statement)
	var buf [keywordWindow]byte
	switch string(upperPrefix(buf[:0], kw)) {
	case "PROJECT", "SINGLE", "DESCEND":
		return ShapeProject
	case "SELECT":
		return ShapeSelect
	case "PRODUCT", "JOIN":
		return ShapeProduct
	case "PROB":
		// Only the sub-form's first keywordWindow bytes are read: when the
		// window past the space is ASCII, the field is sought in it alone,
		// not to the end of a path operand. Anything else takes the whole
		// field, since ToUpper may change a rune's width.
		sub := strings.TrimLeftFunc(rest, unicode.IsSpace)
		if w := sub[:min(len(sub), keywordWindow+1)]; utf8.ValidString(w) && utf8.RuneCountInString(w) == len(w) {
			sub = w
		}
		sub, _ = nextField(sub)
		if up := upperPrefix(buf[:0], sub); string(up) == "EXISTS" || bytes.HasPrefix(up, []byte("VAL(")) {
			return ShapeExists
		}
		return ShapePoint
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

// keywordWindow is one byte more than the longest keyword, MARGINALS: a
// field whose upper case fills it is none of them.
const keywordWindow = len("MARGINALS") + 1

// upperPrefix appends to dst the first keywordWindow bytes of
// strings.ToUpper(field): ASCII bytes folded in place, and ToUpper itself
// only for a field with a byte outside ASCII among them (U+017F and U+0131
// upper-case to S and I).
func upperPrefix(dst []byte, field string) []byte {
	for i := 0; i < len(field) && i < keywordWindow; i++ {
		c := field[i]
		if c >= utf8.RuneSelf {
			up := strings.ToUpper(field)
			return append(dst[:0], up[:min(len(up), keywordWindow)]...)
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// spaceAt returns the width of the unicode.IsSpace rune at s[i], 0 for
// anything else.
func spaceAt(s string, i int) int {
	c := s[i]
	if c < utf8.RuneSelf {
		if c == ' ' || c-'\t' < 5 {
			return 1
		}
		return 0
	}
	if r, n := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// nextField returns the first field of s, as strings.Fields splits it, and
// the remainder.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) && spaceAt(s, i) > 0 {
		i += spaceAt(s, i)
	}
	// Byte steps: no byte inside a rune begins the encoding of a space. The
	// ASCII test is spaceAt's, written out for the loop every operand byte
	// goes through.
	j := i
	for ; j < len(s); j++ {
		if c := s[j]; c == ' ' || c-'\t' < 5 || c >= utf8.RuneSelf && spaceAt(s, j) > 0 {
			break
		}
	}
	return s[i:j], s[j:]
}
