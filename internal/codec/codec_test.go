package codec

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

func roundTripJSON(t testing.TB, pi *core.ProbInstance) *core.ProbInstance {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, pi); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	out, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	return out
}

func roundTripText(t testing.TB, pi *core.ProbInstance) *core.ProbInstance {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeText(&buf, pi); err != nil {
		t.Fatalf("EncodeText: %v", err)
	}
	out, err := DecodeText(&buf)
	if err != nil {
		t.Fatalf("DecodeText: %v\n%s", err, buf.String())
	}
	return out
}

func TestJSONRoundTripFigure2(t *testing.T) {
	pi := fixtures.Figure2VariedLeaves()
	out := roundTripJSON(t, pi)
	if !core.Equal(pi, out, 1e-12) {
		t.Fatal("JSON round trip changed the instance")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("decoded instance invalid: %v", err)
	}
}

func TestTextRoundTripFigure2(t *testing.T) {
	pi := fixtures.Figure2VariedLeaves()
	out := roundTripText(t, pi)
	if !core.Equal(pi, out, 1e-12) {
		t.Fatal("text round trip changed the instance")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("decoded instance invalid: %v", err)
	}
}

func TestQuickRoundTripsRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pi *core.ProbInstance
		if seed%2 == 0 {
			pi = fixtures.RandomTree(r)
		} else {
			pi = fixtures.RandomDAG(r)
		}
		return core.Equal(pi, roundTripJSON(t, pi), 1e-12) &&
			core.Equal(pi, roundTripText(t, pi), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(20250705))}); err != nil {
		t.Fatal(err)
	}
}

func TestTextEncodingWithDefaults(t *testing.T) {
	pi := fixtures.Figure2()
	// Add a default value to exercise the optional leaf value field.
	if err := pi.SetDefaultValue("T1", "VQDB"); err != nil {
		t.Fatal(err)
	}
	out := roundTripText(t, pi)
	if v, ok := out.DefaultValue("T1"); !ok || v != "VQDB" {
		t.Errorf("default value lost: %q %v", v, ok)
	}
	out2 := roundTripJSON(t, pi)
	if v, ok := out2.DefaultValue("T1"); !ok || v != "VQDB" {
		t.Errorf("JSON default value lost: %q %v", v, ok)
	}
}

func TestIsolatedObjectSurvives(t *testing.T) {
	pi := core.NewProbInstance("r")
	pi.AddObject("island")
	out := roundTripText(t, pi)
	if !out.HasObject("island") {
		t.Error("isolated object lost in text round trip")
	}
}

func TestEncodeTextRejectsWhitespaceTokens(t *testing.T) {
	pi := core.NewProbInstance("bad root")
	var buf bytes.Buffer
	if err := EncodeText(&buf, pi); err == nil {
		t.Error("whitespace in root accepted")
	}
}

func TestDecodeTextErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "nope\n"},
		{"no root", "pxml/1\nlch a b 0 1 c\n"},
		{"dup root", "pxml/1\nroot r\nroot q\n"},
		{"bad card", "pxml/1\nroot r\nlch r l x y z\n"},
		{"bad opf prob", "pxml/1\nroot r\nlch r l 0 1 c\nopf r xx c\n"},
		{"unknown record", "pxml/1\nroot r\nzzz\n"},
		{"bad vpf", "pxml/1\nroot r\nvpf r 0.5\n"},
		{"unknown leaf type", "pxml/1\nroot r\nleaf x nosuch\n"},
		{"missing root record", "pxml/1\n"},
		{"short lch", "pxml/1\nroot r\nlch r l 0\n"},
	}
	for _, c := range cases {
		if _, err := DecodeText(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"not json", "garbage"},
		{"wrong format", `{"format":"x","root":"r","objects":[]}`},
		{"missing root", `{"format":"pxml-json/1","objects":[]}`},
		{"bad type ref", `{"format":"pxml-json/1","root":"r","objects":[{"id":"x","type":"none"}]}`},
	}
	for _, c := range cases {
		if _, err := DecodeJSON(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDecodeRejectsStructurallyInvalid(t *testing.T) {
	// A child under two labels of the same parent violates Definition 3.4.
	in := "pxml/1\nroot r\nlch r a 0 1 x\nlch r b 0 1 x\n"
	if _, err := DecodeText(strings.NewReader(in)); err == nil {
		t.Error("double-label child accepted")
	}
}

func TestTextDeterministic(t *testing.T) {
	pi := fixtures.Figure2()
	var a, b bytes.Buffer
	if err := EncodeText(&a, pi); err != nil {
		t.Fatal(err)
	}
	if err := EncodeText(&b, pi); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("text encoding not deterministic")
	}
	if !strings.HasPrefix(a.String(), FormatText+"\n") {
		t.Error("missing header")
	}
}

// TestDecodersRefuseUnitSeparatorIDs: sets.Set.Key joins members with
// U+001F, so an object id holding it — as the root, a child, an OPF member
// or an object — would let {"a\x1fb"} and {"a","b"} share a key. Every
// decoder refuses it; a label, type name or value may still hold it.
func TestDecodersRefuseUnitSeparatorIDs(t *testing.T) {
	decoders := map[string]func(pi *core.ProbInstance) error{
		"text": func(pi *core.ProbInstance) error {
			var buf bytes.Buffer
			if err := EncodeText(&buf, pi); err != nil {
				t.Fatal(err)
			}
			_, err := DecodeTextBytes(buf.Bytes())
			return err
		},
		"json": func(pi *core.ProbInstance) error {
			var buf bytes.Buffer
			if err := EncodeJSON(&buf, pi); err != nil {
				t.Fatal(err)
			}
			_, err := DecodeJSON(&buf)
			return err
		},
		"binary": func(pi *core.ProbInstance) error {
			_, err := DecodeBinaryBytes(AppendBinary(nil, pi))
			return err
		},
	}
	build := func(root, child, label, value string) *core.ProbInstance {
		pi := core.NewProbInstance(root)
		pi.SetLCh(root, label, child, "b")
		pi.SetOPF(root, prob.OPFFromSorted([]prob.OPFEntry{{Set: sets.NewSet(child, "b"), Prob: 1}}))
		if err := pi.RegisterType(model.NewType("t", value)); err != nil {
			t.Fatal(err)
		}
		for _, leaf := range []string{child, "b"} {
			if err := pi.SetLeafType(leaf, "t"); err != nil {
				t.Fatal(err)
			}
			pi.SetVPF(leaf, prob.PointMass(value))
		}
		return pi
	}
	for name, decode := range decoders {
		for _, pi := range []*core.ProbInstance{build("r\x1f", "a", "l", "v"), build("r", "a\x1fb", "l", "v")} {
			if err := decode(pi); err == nil || !strings.Contains(err.Error(), "U+001F") {
				t.Errorf("%s: root %q, children %v: err = %v, want a refusal naming U+001F", name, pi.Root(), pi.AllChildren(pi.Root()), err)
			}
		}
		if err := decode(build("r", "a", "l\x1fm", "v\x1fw")); err != nil {
			t.Errorf("%s: U+001F in a label and a value: %v", name, err)
		}
	}
}

// TestDecodeErrorIsDeterministic: a document with two faults gets the same
// error on every decode. Validation used to range over maps, so which of
// "root r appears in lch(x,b)" and "…lch(y,b)" it reported changed from
// call to call; it now walks the objects in id order.
func TestDecodeErrorIsDeterministic(t *testing.T) {
	doc := []byte("pxml/1\nroot r\nlch r a 0 2 x y\nlch x b 0 1 r\nlch y b 0 1 r\n")
	seen := map[string]int{}
	for i := 0; i < 200; i++ {
		_, err := DecodeTextBytes(doc)
		if err == nil {
			t.Fatal("a document with the root as a child decoded")
		}
		seen[err.Error()]++
	}
	if len(seen) != 1 {
		t.Fatalf("200 decodes gave %d messages: %v", len(seen), seen)
	}
	for msg := range seen {
		if !strings.Contains(msg, "root r appears in lch(x,b)") {
			t.Errorf("message %q, want the fault of x, the first object in id order", msg)
		}
	}
}
