package pxql

import (
	"strings"
	"testing"
	"unicode"
)

// classifyShapeRef is ClassifyShape as it was before it stopped allocating:
// the verdict the byte-folding one is held to.
func classifyShapeRef(statement string) string {
	kw, rest := nextFieldRef(statement)
	switch strings.ToUpper(kw) {
	case "PROJECT", "SINGLE", "DESCEND":
		return ShapeProject
	case "SELECT":
		return ShapeSelect
	case "PRODUCT", "JOIN":
		return ShapeProduct
	case "PROB":
		sub, _ := nextFieldRef(rest)
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

func nextFieldRef(s string) (field, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' })
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i:]
}

// refDisagreesWithParse reports whether stmt is one of the two kinds of
// statement on which the reference did not do what Parse does, and the
// current classifier therefore departs from it: a field separator other
// than space, tab, newline and carriage return (Parse splits at every
// unicode.IsSpace rune; the reference split at those four), and a bare VAL
// after PROB (to Parse, "PROB VAL = o" is a point query on the path VAL).
func refDisagreesWithParse(stmt string) bool {
	for _, r := range stmt {
		if unicode.IsSpace(r) && !strings.ContainsRune(" \t\n\r", r) {
			return true
		}
	}
	f := strings.Fields(stmt)
	return len(f) >= 2 && strings.ToUpper(f[0]) == "PROB" && strings.ToUpper(f[1]) == "VAL"
}

// checkStatement holds one statement to everything FuzzParse checks.
func checkStatement(t *testing.T, stmt string) {
	t.Helper()
	got := ClassifyShape(stmt)
	if want := classifyShapeRef(stmt); got != want && !refDisagreesWithParse(stmt) {
		t.Errorf("ClassifyShape(%q) = %q, reference %q", stmt, got, want)
	}
	if q, err := Parse(stmt); err == nil && got != q.Shape() {
		t.Errorf("ClassifyShape(%q) = %q, parsed shape %q (op %q)", stmt, got, q.Shape(), q.Op)
	}
	if i := ShapeIndex(got); Shapes[i] != got {
		t.Errorf("ShapeIndex(%q) = %d, which is %q", got, i, Shapes[i])
	}
	checkParseProb(t, stmt)
}

// parseSeeds: mixed-case keywords, the PROB sub-forms, leading and odd
// whitespace, the two runes that upper-case into ASCII (U+017F, U+0131) and
// a rune whose upper case is wider than itself (U+0250).
var parseSeeds = []string{
	"PROJECT R.book.author", "single R.book.author", "DeScEnD R.book",
	"SELECT R.book = B1", "select R.book = B1 and R.book.author = A1",
	"SELECT VAL(R.book.title) = Lore", "SELECT CARD(R.book = B1, author) IN [1,2]",
	"PROB R.book.author = A1", "prob exists R.book.author", "Prob Val(R.book.title) = Lore",
	"prob val(", "PROB VAL = o", "PROB OBJECT A1", "PROB\vEXISTS R.a", "PROB\u00a0EXISTS R.a",
	"\t\n PROB R.a = X", "stats", "CHAIN R.B1.A1", "COUNT R.book", "MARGINALS",
	"WORLDS 3", "TOPK 2", "ESTIMATE 100 EXISTS R.book", "estimate 100 R.book = B1",
	"  stats  ", "\u017ftats", "\u017f\u0131ngle R.a", "PRODUCT a b", "JOIN a b", "FROBNICATE", "",
	"SELECT \u0250\u0250\u0250\u0250\u0250\u0250 AND x", "SELECT R.a = \u0131 AND R.b = Y",
	// The PROB sub-form read within keywordWindow+1 bytes: a long operand,
	// EXISTS and VAL( ended by spaces other than U+0020, second fields of
	// exactly keywordWindow and keywordWindow+1 bytes, and a byte outside
	// ASCII inside the window and just past it.
	"PROB R." + strings.Repeat("book.", 200) + "author = A1", "PROB EXISTS\u00a0R.a", "PROB EXISTS\u2003R.a",
	"PROB EXISTS\vR.a", "PROB VAL(\u0085R.a) = x", "PROB EXISTSABCD", "PROB EXISTSABCDE",
	"PROB VAL(R.a.bc", "PROB VAL(R.a.bcd", "PROB EXI\u017fTS R.a", "PROB EXISTSABCD\u017f", "PROB EXISTSABCDE\u017f",
	"PROB EXISTSABC\u0250", "prob \u0131xists", "PROB VAL\u0130(R.a) = x",
}

func TestClassifyShapeSeeds(t *testing.T) {
	for _, stmt := range parseSeeds {
		checkStatement(t, stmt)
	}
}

// TestClassifyShapeAllocatesNothing: the classifier sits on the path of a
// cached answer, twice.
func TestClassifyShapeAllocatesNothing(t *testing.T) {
	for _, stmt := range []string{"PROB R.book.author = A1", "  prob Val(R.t) = x", "marginals", "frobnicate the widget"} {
		if n := testing.AllocsPerRun(100, func() { ClassifyShape(stmt) }); n != 0 {
			t.Errorf("ClassifyShape(%q) allocates %v times", stmt, n)
		}
	}
}

// FuzzParse: Parse never panics, the lexical classifier agrees with the
// parser on everything it accepts and with its own predecessor on
// everything the predecessor got right, and parseProb with its own.
func FuzzParse(f *testing.F) {
	for _, stmt := range parseSeeds {
		f.Add(stmt)
	}
	f.Fuzz(func(t *testing.T, stmt string) { checkStatement(t, stmt) })
}
