package codec

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pxml/internal/gen"
)

// lineEnds are what may follow a line in the decoder's buffer: nothing at
// the end of the document, else its newline or carriage return; digits
// behind them give an overrun something to read.
var lineEnds = []string{"", "\n12345678", "\r\n0.5e1"}

// checkProbLine fails t unless reading every field of line as a
// probability, as the text decoder does with after behind the line, gives
// strconv.ParseFloat's value for that field bit for bit and fails exactly
// where ParseFloat does, and unless the line then has no field left.
// Fields are cut as strings.Fields cuts them.
func checkProbLine(t *testing.T, line, after string) {
	t.Helper()
	c := fieldCursor{buf: []byte(line + after), end: len(line)}
	fields := strings.Fields(line)
	for _, f := range fields {
		want, wantErr := strconv.ParseFloat(f, 64)
		got, err := c.prob()
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("%q then %q: field %q reads %v (%x), %v; ParseFloat %v (%x), %v",
				line, after, f, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	}
	if _, err := c.prob(); err != errNoField {
		t.Fatalf("%q then %q: after %d fields, err = %v, want errNoField", line, after, len(fields), err)
	}
}

// bodyProbabilities returns the probabilities of ingest_mix's 341-object
// instance as the text encoder writes them, space separated.
func bodyProbabilities(tb testing.TB) string {
	in, err := gen.Generate(gen.Config{Depth: 4, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	var ps []string
	for _, o := range in.PI.Objects() {
		if w := in.PI.OPF(o); w != nil {
			for _, e := range w.Entries() {
				ps = append(ps, strconv.FormatFloat(e.Prob, 'g', -1, 64))
			}
		}
		if v := in.PI.VPF(o); v != nil {
			for _, e := range v.Entries() {
				ps = append(ps, strconv.FormatFloat(e.Prob, 'g', -1, 64))
			}
		}
	}
	return strings.Join(ps, " ")
}

// FuzzParseProbDifferential holds the decoder's probability read — the
// Eisel–Lemire fast path, and ParseFloat for what it declines — to
// strconv.ParseFloat on every field of a line: the same bits and the same
// error-ness.
func FuzzParseProbDifferential(f *testing.F) {
	f.Add(bodyProbabilities(f))
	for _, s := range []string{
		// 19 and 20 significant digits; 2^64-1 and 2^64.
		"1234567890123456789", "12345678901234567890", "9999999999999999999",
		"0.1234567890123456789", "0.12345678901234567890", "18446744073709551615",
		"18446744073709551616",
		// Exactly halfway between two floats, and just off it.
		"9007199254740993", "9007199254740993.0", "18014398509481986",
		"9007199254740992.5", "9007199254740993e-16", "1.00000000000000011102230246251565404236316680908203125",
		// Forms at the fast path's edges.
		"1e-05", "0", "-0", ".5", "5.", "+1", "0.", ".", "e5", "1e", "1e+", "1e-0005", "1E3",
		"00000000000000000000000.5", "0.00000000000000000000000001", "1e-96", "1e-97", "1e32", "1e33",
		// Not the fast path's form at all.
		"0x1p-2", "1_0", "Inf", "NaN", "-Inf", "infinity", "1e400", "1e-400", "5e-324", "4.9e-324",
		// Separators, and a field the fast path stops inside.
		"0.5 0.25", "0.5x 0.25", "0.5\x1f", "\t0.5\v0.25\f", "0.5é", "1e5é",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		for _, after := range lineEnds {
			checkProbLine(t, line, after)
		}
	})
}

// TestProbReadMatchesParseFloat is the fuzz target's seeded tier-1 form:
// 1 M random float64 values, each in 'g' and 'f' form — uniform
// probabilities, products of a few (the small ones an instance holds),
// random bit patterns and values scaled by powers of ten.
func TestProbReadMatchesParseFloat(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var line strings.Builder
	for i := 0; i < 1_000_000; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = r.Float64()
		case 1:
			v = r.Float64() * r.Float64() * r.Float64()
		case 2:
			v = math.Float64frombits(r.Uint64())
		case 3:
			v = r.Float64() * math.Pow(10, float64(r.Intn(80)-60))
		}
		line.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		line.WriteByte(' ')
		line.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
		line.WriteByte(' ')
		if i%1000 == 999 {
			checkProbLine(t, line.String(), lineEnds[i/1000%len(lineEnds)])
			line.Reset()
		}
	}
}

// TestFastFloatTakesEncoderProbabilities: the fast path converts every
// probability of ingest_mix's body itself; only the rare halfway case may
// go to ParseFloat. A fast path that declined everything would pass the
// differential checks above and speed nothing up.
func TestFastFloatTakesEncoderProbabilities(t *testing.T) {
	for _, f := range strings.Fields(bodyProbabilities(t)) {
		if _, n, ok := fastFloat([]byte(f)); !ok || n != len(f) {
			t.Errorf("fastFloat declines %q (took %d bytes, ok %v)", f, n, ok)
		}
	}
}
