package pxql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pxml/internal/pathexpr"
)

// parseProbRef is parseProb as it was before it stopped allocating: it
// upper-cased the whole first field and joined and split the fields at
// '='. parseProb is held to it.
func parseProbRef(rest []string) (Query, error) {
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

// checkParseProb holds parseProb to parseProbRef on every suffix of stmt's
// fields that Parse hands it (after PROB, and after ESTIMATE's count): the
// same Query, and an error exactly when the reference errs.
func checkParseProb(t *testing.T, stmt string) {
	t.Helper()
	fields := strings.Fields(stmt)
	for skip := 1; skip <= 2 && skip <= len(fields); skip++ {
		rest := fields[skip:]
		got, err := parseProb(rest)
		want, werr := parseProbRef(rest)
		if (err != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("parseProb(%q) = %+v, %v; reference %+v, %v", rest, got, err, want, werr)
		}
	}
}

// probSeeds put the '=' everywhere the point form can meet it: alone, at
// either end of a field, inside one, missing, doubled, with several
// fields on a side, and behind keywords a case fold could mistake.
var probSeeds = []string{
	"PROB a.b = c", "PROB a.b=c", "PROB a.b =c", "PROB a.b= c", "PROB a b = c", "PROB a.b = c d",
	"PROB a = b = c", "PROB a.b == c", "PROB =", "PROB = c", "PROB a.b =", "PROB a.b", "PROB",
	"PROB x y z=w v", "PROB  a.b\t= c", "ESTIMATE 10 a.b=c", "ESTIMATE 10 a.b = c d",
	"PROB exists=a", "PROB EXISTS a = b", "PROB object = b", "PROB val(a)=b", "PROB ıxists a",
	"PROB EXIſTS a", "PROB R.ɐ = ɐ", "PROB \xff = \xfe",
}

// randomStatement draws a PROB or ESTIMATE statement from a small
// alphabet dense in '=', spaces, keywords and case-folding runes.
func randomStatement(r *rand.Rand) string {
	tokens := []string{"=", "==", " ", "  ", "\t", " ", "a", "R.b", "c.d", "exists", "EXISTS", "object",
		"val(", "VAL(R.a)", ")", "ſ", "ı", "*", "R.a.b", "x=y", "=z", "w="}
	var b strings.Builder
	if r.Intn(4) == 0 {
		b.WriteString("ESTIMATE 5 ")
	} else {
		b.WriteString("PROB ")
	}
	for n := r.Intn(7); n > 0; n-- {
		b.WriteString(tokens[r.Intn(len(tokens))])
		if r.Intn(2) == 0 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

func TestParseProbMatchesReference(t *testing.T) {
	for _, stmt := range append(append([]string{}, parseSeeds...), probSeeds...) {
		checkParseProb(t, stmt)
	}
	r := rand.New(rand.NewSource(50))
	for i := 0; i < 20000; i++ {
		checkParseProb(t, randomStatement(r))
	}
}

// TestParseProbPointAllocs: a point PROB allocates what strings.Fields and
// its path do, and nothing to find its keyword or its '='.
func TestParseProbPointAllocs(t *testing.T) {
	const stmt = "PROB bomb.arm.leaf = leaf2"
	ref := testing.AllocsPerRun(100, func() { _, _ = pathexpr.Parse("bomb.arm.leaf") })
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(stmt) }); n > ref+1 {
		t.Errorf("Parse(%q) allocates %v times; its path alone %v, and Fields one more", stmt, n, ref)
	}
}
