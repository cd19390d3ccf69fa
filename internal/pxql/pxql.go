// Package pxql is a small textual query language over PXML probabilistic
// instances, wrapping the paper's algebra and queries in the spirit of its
// Section 8 discussion of XPath/XQuery (path expressions locate objects;
// the operators manipulate whole probabilistic instances).
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
// The package is the language only: Parse, the Query and Result types, and
// the statement shapes. Nothing here evaluates — internal/engine executes a
// Query and decides the tree-or-DAG lane, and it is the only thing that
// does, so this package must not import an inference kernel (bayes, query,
// enumerate), the governor or the engine (imports_test.go holds it to that).
package pxql

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"pxml/internal/algebra"
	"pxml/internal/core"
	"pxml/internal/pathexpr"
	"pxml/internal/sets"
)

// Query is a parsed statement.
type Query struct {
	// Op is the canonical operation name: project, single, descend,
	// select, prob-point, prob-exists, prob-value, prob-object, chain,
	// count, marginals, worlds, topk, estimate-exists, estimate-point,
	// stats.
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

// Result is the outcome of executing a query (engine.Engine.Run / Exec).
// It is immutable once returned: an engine with a result cache hands the
// same *Result to every caller of a repeated statement, so no holder may
// write through it, Prob's pointee included.
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

// parseProb parses the fields after PROB. Its keyword test folds case
// into a stack buffer as ClassifyShape does, so `PROB <path> = <obj>`
// allocates only what its path does.
func parseProb(rest []string) (Query, error) {
	if len(rest) == 0 {
		return Query{}, fmt.Errorf("pxql: PROB needs arguments")
	}
	var buf [keywordWindow]byte
	head := upperPrefix(buf[:0], rest[0])
	switch {
	case string(head) == "EXISTS":
		if len(rest) != 2 {
			return Query{}, fmt.Errorf("pxql: PROB EXISTS needs one path")
		}
		p, err := pathexpr.Parse(rest[1])
		if err != nil {
			return Query{}, err
		}
		return Query{Op: "prob-exists", Path: p}, nil
	case string(head) == "OBJECT":
		if len(rest) != 2 {
			return Query{}, fmt.Errorf("pxql: PROB OBJECT needs one object id")
		}
		return Query{Op: "prob-object", Object: rest[1]}, nil
	case bytes.HasPrefix(head, []byte("VAL(")):
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
		// PROB <path> = <obj>: the fields, read as joined by single
		// spaces, hold one '='. A side of one piece is not copied.
		at, n := 0, 0
		for i, f := range rest {
			if c := strings.Count(f, "="); c > 0 {
				at, n = i, n+c
			}
		}
		if n != 1 {
			return Query{}, fmt.Errorf("pxql: PROB needs path = object")
		}
		path, obj, _ := strings.Cut(rest[at], "=")
		if before := strings.Join(rest[:at], " "); path == "" {
			path = before
		} else if before != "" {
			path = before + " " + path
		}
		if after := strings.Join(rest[at+1:], " "); obj == "" {
			obj = after
		} else if after != "" {
			obj += " " + after
		}
		p, err := pathexpr.Parse(path)
		if err != nil {
			return Query{}, err
		}
		return Query{Op: "prob-point", Path: p, Object: obj}, nil
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

// splitCaseInsensitive splits s around every occurrence of the upper-case
// ASCII separator sep, matched without regard to ASCII case. It compares
// the bytes of s itself: upper-casing s first would move the offsets of
// everything after a rune whose upper case has another width.
func splitCaseInsensitive(s, sep string) []string {
	var parts []string
	start := 0
	for i := 0; i+len(sep) <= len(s); i++ {
		if strings.EqualFold(s[i:i+len(sep)], sep) {
			parts = append(parts, s[start:i])
			start = i + len(sep)
			i = start - 1
		}
	}
	return append(parts, s[start:])
}
