package codec

import (
	"bytes"
	"strings"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
)

// FuzzDecodeText asserts the text decoder never panics on arbitrary input
// and that anything it accepts round-trips stably (decode → encode →
// decode reproduces the same instance).
func FuzzDecodeText(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeText(&seed, fixtures.Figure2()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("pxml/1\nroot r\n")
	f.Add("pxml/1\nroot r\nlch r l 0 1 x\nopf r 0.5 x\nopf r 0.5\n")
	f.Add("pxml/1\nroot r\ntype t a b\nleaf x t a\nvpf x 1 a\nobj y\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		pi, err := DecodeText(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeText(&buf, pi); err != nil {
			// Decoded instances may contain tokens the encoder rejects
			// only if the decoder let whitespace through, which it cannot
			// (it splits on whitespace); any other failure is a bug.
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := DecodeText(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, buf.String())
		}
		if !core.Equal(pi, again, 1e-9) {
			t.Fatalf("round trip unstable:\nfirst:  %v\nsecond: %v", pi.Objects(), again.Objects())
		}
	})
}

// FuzzDecodeBinary asserts the binary decoder never panics on arbitrary
// bytes and that anything it accepts round-trips stably through both the
// binary and the text codec (format parity).
func FuzzDecodeBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeBinary(&seed, fixtures.Figure2VariedLeaves()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	var tiny bytes.Buffer
	if err := EncodeBinary(&tiny, core.NewProbInstance("r")); err != nil {
		f.Fatal(err)
	}
	f.Add(tiny.Bytes())
	f.Add([]byte("PXB1"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		pi, err := DecodeBinaryBytes(in)
		if err != nil {
			return
		}
		again := roundTripBinary(t, pi)
		if !core.Equal(pi, again, 1e-9) {
			t.Fatalf("binary round trip unstable:\nfirst:  %v\nsecond: %v", pi.Objects(), again.Objects())
		}
		// Parity: a binary-accepted instance must survive the text codec,
		// provided every token is text-representable (binary permits
		// whitespace and empty strings the line format cannot carry).
		if !textRepresentable(pi) {
			return
		}
		var txt bytes.Buffer
		if err := EncodeText(&txt, pi); err != nil {
			t.Fatalf("text encode of clean instance failed: %v", err)
		}
		viaText, err := DecodeText(&txt)
		if err != nil {
			t.Fatalf("text re-decode failed: %v\n%s", err, txt.String())
		}
		if !core.Equal(pi, viaText, 1e-9) {
			t.Fatal("binary/text parity violated")
		}
	})
}

// textRepresentable reports whether every token of the instance survives
// the whitespace-delimited text format, including the OPF set members and
// VPF values the text encoder does not itself re-check.
func textRepresentable(pi *core.ProbInstance) bool {
	clean := func(s string) bool { return checkToken(s) == nil }
	for name, typ := range pi.Types() {
		if !clean(name) {
			return false
		}
		for _, v := range typ.Domain {
			if !clean(v) {
				return false
			}
		}
	}
	for _, o := range pi.Objects() {
		if !clean(o) {
			return false
		}
		for _, l := range pi.Labels(o) {
			if !clean(l) {
				return false
			}
		}
		if w := pi.OPF(o); w != nil {
			for _, e := range w.Entries() {
				for _, m := range e.Set {
					if !clean(m) {
						return false
					}
				}
			}
		}
		if v := pi.VPF(o); v != nil {
			for _, e := range v.Entries() {
				if !clean(e.Value) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzDecodeJSON asserts the JSON decoder never panics and accepted inputs
// round-trip stably.
func FuzzDecodeJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeJSON(&seed, fixtures.Figure2VariedLeaves()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"format":"pxml-json/1","root":"r","objects":[]}`)
	f.Add(`{"format":"pxml-json/1","root":"r","objects":[{"id":"r","children":[{"label":"l","ids":["x"]}],"opf":[{"set":["x"],"p":1}]}]}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, in string) {
		pi, err := DecodeJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, pi); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !core.Equal(pi, again, 1e-9) {
			t.Fatal("round trip unstable")
		}
	})
}

// textDifferentialSeeds are documents that each exercise one behaviour the
// byte-level text decoder must share with the decoder it replaced.
var textDifferentialSeeds = []string{
	// Records in any order after root; a leaf ahead of its type.
	"pxml/1\nroot r\nvpf x 1 a\nleaf x t a\nopf r 0.5 x\nopf r 0.5\nlch r l 0 1 x\ntype t a b\n",
	// An lch without children removes (o,l) yet records its interval.
	"pxml/1\nroot r\nlch r l 0 1 x\nlch r l 2 5\nopf r 1\n",
	"pxml/1\nroot r\nlch r l 0 1 x\nlch r l 5 2\n",
	// A repeated (o,l) replaces, and does not inherit an elided interval.
	"pxml/1\nroot r\nlch r l 1 1 x y\nlch r l 0 3 x y z\nopf r 1 x y z\n",
	"pxml/1\nroot r\nlch r l 0 2 x y\nlch r l 1 1 x y z\nopf r 1 x\n",
	"pxml/1\nroot r\nlch r l 2 5\nlch r l 0 2 x y\nopf r 1\n",
	// lch children and leaf ids join V without an obj record.
	"pxml/1\nroot r\ntype t a\nleaf orphan t\nvpf orphan 1 a\nlch r l 0 2 x y\nopf r 1 x y\n",
	// Non-canonical and repeated members.
	"pxml/1\nroot r\nlch r l 0 3 z y x x\nopf r 0.5 z x\nopf r 0.5 y y x\n",
	// Non-canonical entry order; a repeated set sums, a repeated value replaces.
	"pxml/1\nroot r\nlch r l 0 2 x y\nopf r 0.25 x y\nopf r 0.25\nopf r 0.25 x\nopf r 0.25 x\n",
	"pxml/1\nroot r\ntype t a b\nleaf r t\nvpf r 0.9 b\nvpf r 0.5 a\nvpf r 0.5 b\n",
	"pxml/1\nroot r\nlch r l 0 1 x\nopf r -0 x\nopf r 1\n",
	// Two objects' opf lines interleaved.
	"pxml/1\nroot r\nlch r l 0 1 x\nlch x l 0 1 y\nopf r 0.5\nopf x 0.5\nopf r 0.5 x\nopf x 0.5 y\n",
	// CRLF, blank lines, no trailing newline, odd ASCII spacing.
	"pxml/1\r\nroot r\r\n\r\nlch r l 0 1 x\r\nopf r 1 x\r",
	"  pxml/1 \n\n \t root\tr\v\nobj\fq",
	// Non-ASCII separators (U+0085, U+00A0, U+2003) and invalid UTF-8.
	"pxml/1\nroot r\nlch\u0085r\u00a0l 0\u20031 x\nopf r 1 x\n",
	"pxml/1\nroot r\xff\nobj \xc2\n",
	// A local function for an object outside V.
	"pxml/1\nroot r\nopf ghost 1\n",
	"pxml/1\nroot r\nvpf ghost 1 a\n",
	// Every line-level error.
	"", "\n", "pxml/2\nroot r\n", "pxml/1\n", "pxml/1\nobj x\nroot r\n", "pxml/1\nfrob\n",
	"pxml/1\nroot r\nroot r\n", "pxml/1\nroot\n", "pxml/1\nroot r\ntype t\n",
	"pxml/1\nroot r\ntype t a\ntype t b\n", "pxml/1\nroot r\nlch r l 0\n",
	"pxml/1\nroot r\nlch r l a 1 x\n", "pxml/1\nroot r\nopf r\n", "pxml/1\nroot r\nopf r 0..5\n",
	"pxml/1\nroot r\nleaf x\n", "pxml/1\nroot r\nleaf x nosuch\n",
	"pxml/1\nroot r\ntype t a\nleaf x t b\n", "pxml/1\nroot r\nvpf x 1\n",
	"pxml/1\nroot r\nvpf x one a\n", "pxml/1\nroot r\nobj\n", "pxml/1\nroot r\nfrob x\n",
	// Structurally invalid once assembled.
	"pxml/1\nroot r\nlch x l 0 1 r\n", "pxml/1\nroot r\nlch r a 0 1 x\nlch r b 0 1 x\n",
	"pxml/1\nroot r\ntype t a\nlch r l 0 1 x\nleaf r t\n",
	// Decodes, but is not a valid instance.
	"pxml/1\nroot r\nlch r l 0 1 x\nlch x l 0 1 y\nlch y l 0 1 x\nopf r 1\nopf x 1\nopf y 1\n",
	"pxml/1\nroot r\nlch r l 0 1 x\nopf r NaN x\nopf r Inf\n",
	// U+001F: refused in an object id, any record's; kept in a label, a
	// type name or a value.
	"pxml/1\nroot r\nlch r l 0 2 a b\nobj a\x1fb\nopf r 0.5 a\x1fb\nopf r 0.5 a b\n",
	"pxml/1\nroot r\x1f\n", "pxml/1\nroot r\nlch r l 0 1 x\x1fy\n",
	"pxml/1\nroot r\nlch r l\x1fm 0 1 x\nopf r 1 x\ntype t\x1f a\x1fb\nleaf x t\x1f\nvpf x 1 a\x1fb\n",
}

// FuzzDecodeTextDifferential holds DecodeTextBytes to the decoder it
// replaced (decodeTextReference): the same verdict and, where the old
// decoder's choice among several errors was deterministic, the same error
// text; for accepted input an equal instance, byte-identical binary
// records and the same ValidateLite outcome.
func FuzzDecodeTextDifferential(f *testing.F) {
	var fig2 bytes.Buffer
	if err := EncodeText(&fig2, fixtures.Figure2VariedLeaves()); err != nil {
		f.Fatal(err)
	}
	f.Add(fig2.String())
	in, err := gen.Generate(gen.Config{Depth: 3, Branch: 3, Labeling: gen.FR, Seed: 19, LeafDomainSize: 2})
	if err != nil {
		f.Fatal(err)
	}
	var tree bytes.Buffer
	if err := EncodeText(&tree, in.PI); err != nil {
		f.Fatal(err)
	}
	f.Add(tree.String())
	for _, s := range textDifferentialSeeds {
		f.Add(s)
	}
	f.Fuzz(diffDecodeText)
}

// diffDecodeText fails t unless DecodeTextBytes and decodeTextReference
// agree on doc. The one departure is deliberate: DecodeTextBytes refuses an
// object id holding U+001F, the byte sets.Set.Key joins members with, which
// the reference accepted and then filed {"a\x1fb"} and {"a","b"} under one
// key; such a refusal is checked on its own.
func diffDecodeText(t *testing.T, doc string) {
	t.Helper()
	got, gotErr := DecodeTextBytes([]byte(doc))
	if gotErr != nil && strings.Contains(gotErr.Error(), "object id contains U+001F") {
		if strings.IndexByte(doc, unitSeparator) < 0 {
			t.Fatalf("refused a document without U+001F: %v", gotErr)
		}
		return
	}
	if gotErr == nil {
		for _, o := range got.Objects() {
			if checkObjectID(o) != nil {
				t.Fatalf("accepted object id %q", o)
			}
		}
	}
	want, wantErr := decodeTextReference(strings.NewReader(doc))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("verdict differs: reference %v, decoder %v", wantErr, gotErr)
	}
	if wantErr != nil {
		// The reference ranged over maps to apply leaf records and to
		// validate, so which of several such errors it reports is chance.
		for _, class := range []string{"codec: leaf ", "codec: decoded instance invalid: "} {
			if strings.HasPrefix(wantErr.Error(), class) {
				if !strings.HasPrefix(gotErr.Error(), class) {
					t.Fatalf("error class differs: reference %q, decoder %q", wantErr, gotErr)
				}
				return
			}
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error differs: reference %q, decoder %q", wantErr, gotErr)
		}
		return
	}
	if !core.Equal(want, got, 0) {
		t.Fatalf("instances differ:\nreference: %v\ndecoder:   %v", want.Objects(), got.Objects())
	}
	if !bytes.Equal(AppendBinary(nil, want), AppendBinary(nil, got)) {
		t.Fatal("binary records differ")
	}
	wantV, gotV := want.ValidateLite(), got.ValidateLite()
	if (wantV == nil) != (gotV == nil) {
		t.Fatalf("ValidateLite differs: reference %v, decoder %v", wantV, gotV)
	}
	if wantV != nil && wantV.Error() != gotV.Error() && !strings.Contains(wantV.Error(), "not acyclic") {
		t.Fatalf("ValidateLite message differs: reference %q, decoder %q", wantV, gotV)
	}
}
