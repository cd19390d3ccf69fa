package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pxml/internal/apiv1"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
)

// TestPutRefusesBadNameBeforeBody: a persistent server answers an
// unstorable name from the URL alone, whatever the body holds; the body's
// own faults are reported only under a name that could be stored.
func TestPutRefusesBadNameBeforeBody(t *testing.T) {
	const (
		valid      = "pxml/1\nroot r\nlch r l 0 1 x\nopf r 1 x\n"
		badMass    = "pxml/1\nroot r\nlch r l 0 1 x\nopf r 0.5 x\n"
		notADoc    = "garbage"
		badName    = "/v1/instances/has%2Fslash"
		goodName   = "/v1/instances/fine"
		nameErr    = "not storable"
		invalidErr = "instance invalid"
	)
	maxBody := int64(len(valid)) + 512
	durable, err := New(Config{StoreDir: t.TempDir(), MaxBody: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for _, tc := range []struct {
		what       string
		persistent bool
		path, body string
		status     int
		code, say  string
	}{
		{"bad name, valid instance", true, badName, valid, 400, apiv1.CodeInvalidRequest, nameErr},
		{"bad name, invalid instance", true, badName, badMass, 400, apiv1.CodeInvalidRequest, nameErr},
		{"bad name, undecodable body", true, badName, notADoc, 400, apiv1.CodeInvalidRequest, nameErr},
		{"bad name, oversized body", true, badName, valid + strings.Repeat("\n", 1<<10), 400, apiv1.CodeInvalidRequest, nameErr},
		{"good name, invalid instance", true, goodName, badMass, 422, apiv1.CodeInvalidInstance, invalidErr},
		{"good name, undecodable body", true, goodName, notADoc, 400, apiv1.CodeInvalidRequest, "unexpected header"},
		{"good name, valid instance", true, goodName, valid, 201, "", ""},
		// An in-memory catalog stores any name, so only the body counts.
		{"in memory, invalid instance", false, badName, badMass, 422, apiv1.CodeInvalidInstance, invalidErr},
		{"in memory, valid instance", false, badName, valid, 201, "", ""},
	} {
		s := durable
		if !tc.persistent {
			s = MustNew(Config{MaxBody: maxBody})
		}
		ts := httptest.NewServer(s.Handler())
		resp, body := do(t, "PUT", ts.URL+tc.path, tc.body, "text/plain")
		ts.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.what, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.code == "" {
			continue
		}
		if e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body)); e.Code != tc.code || !strings.Contains(e.Message, tc.say) {
			t.Errorf("%s: error %q %q, want code %q mentioning %q", tc.what, e.Code, e.Message, tc.code, tc.say)
		}
	}
}

// TestPutRejectsFunctionOutsideV: a local function for an object that is
// not in V used to be acknowledged and then dropped by every encoder; it is
// an invalid instance.
func TestPutRejectsFunctionOutsideV(t *testing.T) {
	s, ts := newTestServer(t)
	for _, doc := range []string{
		"pxml/1\nroot r\nopf ghost 1\n",
		"pxml/1\nroot r\ntype t a\nvpf ghost 1 a\n",
	} {
		resp, body := do(t, "PUT", ts.URL+"/v1/instances/g", doc, "text/plain")
		e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body))
		if resp.StatusCode != http.StatusUnprocessableEntity || e.Code != apiv1.CodeInvalidInstance || !strings.Contains(e.Message, "ghost") {
			t.Errorf("status %d, error %q %q; want 422 invalid_instance naming ghost", resp.StatusCode, e.Code, e.Message)
		}
		if _, ok := s.Get("g"); ok {
			t.Error("the rejected instance was installed")
		}
	}
	// The same root without the stray function is fine.
	if resp, body := do(t, "PUT", ts.URL+"/v1/instances/g", "pxml/1\nroot r\n", "text/plain"); resp.StatusCode != http.StatusCreated {
		t.Errorf("control: status %d: %s", resp.StatusCode, body)
	}
}

// TestPutRejectsMisplacedFunctions: an OPF on a leaf and a VPF on a
// non-leaf used to be stored and then ignored by every reader; each makes
// the instance invalid, named in the message.
func TestPutRejectsMisplacedFunctions(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct{ what, doc, say string }{
		{"OPF on a leaf", "pxml/1\nroot r\nlch r l 1 1 x\nopf r 1 x\nopf x 1\n", "leaf x has an OPF"},
		{"VPF on a non-leaf", "pxml/1\nroot r\ntype t a\nlch r l 1 1 x\nopf r 1 x\nvpf r 1 a\nleaf x t\nvpf x 1 a\n", "non-leaf r has a VPF"},
	} {
		t.Run(tc.what, func(t *testing.T) {
			resp, body := do(t, "PUT", ts.URL+"/v1/instances/m", tc.doc, "text/plain")
			e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body))
			if resp.StatusCode != http.StatusUnprocessableEntity || e.Code != apiv1.CodeInvalidInstance || !strings.Contains(e.Message, tc.say) {
				t.Errorf("status %d, error %q %q; want 422 invalid_instance saying %q", resp.StatusCode, e.Code, e.Message, tc.say)
			}
			if _, ok := s.Get("m"); ok {
				t.Error("the rejected instance was installed")
			}
		})
	}
}

// TestPutRefusesUnitSeparatorIDs: an object id holding U+001F, the byte
// sets.Set.Key joins members with, is refused by the decoder like any other
// malformed body, in text and in JSON.
func TestPutRefusesUnitSeparatorIDs(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct{ contentType, doc string }{
		{"text/plain", "pxml/1\nroot r\nlch r l 0 2 a b\nobj a\x1fb\nopf r 0.5 a\x1fb\nopf r 0.5 a b\n"},
		{"application/json", `{"format":"pxml-json/1","root":"r","objects":[{"id":"r","children":[{"label":"l","ids":["a\u001fb"]}],"opf":[{"set":["a\u001fb"],"p":1}]}]}`},
	} {
		resp, body := do(t, "PUT", ts.URL+"/v1/instances/us", tc.doc, tc.contentType)
		e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body))
		if resp.StatusCode != http.StatusBadRequest || e.Code != apiv1.CodeInvalidRequest || !strings.Contains(e.Message, "U+001F") {
			t.Errorf("%s: status %d, error %q %q; want 400 invalid_request naming U+001F", tc.contentType, resp.StatusCode, e.Code, e.Message)
		}
		if _, ok := s.Get("us"); ok {
			t.Errorf("%s: the refused instance was installed", tc.contentType)
		}
	}
}

// TestPutBodyDeclaredLength: a PUT body is sized from its Content-Length
// but read to its end whatever that says — chunked (-1), understated,
// exact, overstated or declared past the limit — and every reading decodes
// to the same instance; a body over the limit is 413 whatever it declares.
func TestPutBodyDeclaredLength(t *testing.T) {
	in, err := gen.Generate(gen.Config{Depth: 3, Branch: 3, Labeling: gen.FR, LeafDomainSize: 2, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := codec.EncodeText(&doc, in.PI); err != nil {
		t.Fatal(err)
	}
	n := int64(doc.Len())
	s := MustNew(Config{MaxBody: n + 1024})
	h := s.Handler()
	put := func(body []byte, declared int64) *httptest.ResponseRecorder {
		r := httptest.NewRequest("PUT", "/v1/instances/x", bytes.NewReader(body))
		r.ContentLength = declared
		r.Header.Set("Content-Type", "text/plain")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	oversized := append(bytes.Clone(doc.Bytes()), bytes.Repeat([]byte{'\n'}, 2048)...)
	for _, tc := range []struct {
		what     string
		declared int64
	}{
		{"chunked", -1},
		{"declared empty", 0},
		{"understated", n / 3},
		{"exact", n},
		{"overstated", 2 * n},
		{"declared past the limit", 1 << 40},
	} {
		s.Delete("x")
		if w := put(doc.Bytes(), tc.declared); w.Code != http.StatusCreated {
			t.Errorf("%s: status %d: %s", tc.what, w.Code, w.Body)
			continue
		}
		if got, ok := s.Get("x"); !ok || !core.Equal(got, in.PI, 0) {
			t.Errorf("%s: the stored instance is not the one sent", tc.what)
		}
		w := put(oversized, tc.declared)
		if e := apiv1.ErrorFromBody(w.Code, w.Body.Bytes()); w.Code != http.StatusRequestEntityTooLarge || e.Code != apiv1.CodeBodyTooLarge {
			t.Errorf("%s, over the limit: status %d, code %q; want 413 %s", tc.what, w.Code, e.Code, apiv1.CodeBodyTooLarge)
		}
	}
}

// TestPutServesWhatItAlwaysServed pins the bytes a PUT turns into: the text
// GET returns and the binary record a reopened store decodes to are, for a
// body in the encoder's order and for the same lines shuffled, the bytes the
// pipeline produced before it was rebuilt (the two digests were taken from
// the previous decoder, validator and encoder).
func TestPutServesWhatItAlwaysServed(t *testing.T) {
	const (
		textSHA   = "96764692e299a7a6ea00159aadcd85522ea6b38139ed865d69b6265e24cd6316"
		recordSHA = "c1b8000ea0c05fc6beb0fb8a68173cef8241ea5c1bec61ef315fb7e61017a235"
	)
	digest := func(b []byte) string { sum := sha256.Sum256(b); return hex.EncodeToString(sum[:]) }
	in, err := gen.Generate(gen.Config{Depth: 3, Branch: 3, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	if err := codec.EncodeText(&canon, in.PI); err != nil {
		t.Fatal(err)
	}
	if got := digest(canon.Bytes()); got != textSHA {
		t.Fatalf("the generated document changed (sha256 %s); this test pins the pipeline, not the generator", got)
	}
	// Header and root stay first; every other record moves.
	lines := strings.SplitAfter(canon.String(), "\n")
	rest := lines[2 : len(lines)-1]
	rand.New(rand.NewSource(19)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	shuffled := strings.Join(lines, "")
	if shuffled == canon.String() {
		t.Fatal("shuffle left the document as it was")
	}

	dir := t.TempDir()
	check := func(s *Server, when string) {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for _, name := range []string{"canon", "shuffled"} {
			resp, body := do(t, "GET", ts.URL+"/v1/instances/"+name, "", "")
			if resp.StatusCode != http.StatusOK || body != canon.String() {
				t.Errorf("%s: GET %s: status %d, sha256 %s, want the canonical document", when, name, resp.StatusCode, digest([]byte(body)))
			}
			pi, ok := s.Get(name)
			if !ok {
				t.Fatalf("%s: %s missing", when, name)
			}
			if got := digest(codec.AppendBinary(nil, pi)); got != recordSHA {
				t.Errorf("%s: %s: binary record sha256 %s, want %s", when, name, got, recordSHA)
			}
		}
	}
	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	for name, doc := range map[string]string{"canon": canon.String(), "shuffled": shuffled} {
		if resp, body := do(t, "PUT", ts.URL+"/v1/instances/"+name, doc, "text/plain"); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, resp.StatusCode, body)
		}
	}
	ts.Close()
	check(s, "served")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rep := reopened.RecoveryReport(); rep.Recovered != 2 {
		t.Fatalf("reopen recovered %d instances, want 2", rep.Recovered)
	}
	check(reopened, "reopened")
}

// TestBackToBackPutsStoreTheirOwnBodies: PUT bodies are read into pooled
// buffers, so each PUT reads over the bytes of an earlier one. Back-to-back
// PUTs of different bodies through Handler() — text and JSON, a declared
// and an undeclared length, after a 400 and after a 413 that left a body
// half read — each store exactly their own instance, checked once all of
// them have run.
func TestBackToBackPutsStoreTheirOwnBodies(t *testing.T) {
	encode := func(pi *core.ProbInstance, json bool) string {
		var buf bytes.Buffer
		var err error
		if json {
			err = codec.EncodeJSON(&buf, pi)
		} else {
			err = codec.EncodeText(&buf, pi)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	instance := func(depth int, seed int64) *core.ProbInstance {
		in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return in.PI
	}
	big, small, third, fourth := instance(4, 1), instance(2, 2), instance(3, 3), instance(2, 4)
	maxBody := int64(len(encode(big, true))) + 1024
	s := MustNew(Config{MaxBody: maxBody})
	defer s.Close()
	h := s.Handler()
	want := map[string]*core.ProbInstance{}
	for _, step := range []struct {
		name    string
		pi      *core.ProbInstance // nil: body is sent as is
		body    string
		json    bool
		chunked bool
		status  int
	}{
		{name: "big", pi: big, status: http.StatusCreated},
		{name: "small", pi: small, status: http.StatusCreated},
		{name: "bad", body: "pxml/1\nroot r\nfrob x\n", status: http.StatusBadRequest},
		{name: "third", pi: third, json: true, status: http.StatusCreated},
		{name: "huge", body: encode(big, false) + strings.Repeat("\n", int(maxBody)), chunked: true, status: http.StatusRequestEntityTooLarge},
		{name: "fourth", pi: fourth, chunked: true, status: http.StatusCreated},
		{name: "small-again", pi: small, json: true, chunked: true, status: http.StatusCreated},
	} {
		body, ct := step.body, "text/plain"
		if step.pi != nil {
			body = encode(step.pi, step.json)
		}
		if step.json {
			ct = "application/json"
		}
		req := httptest.NewRequest("PUT", "/v1/instances/"+step.name, strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		if step.chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != step.status {
			t.Fatalf("PUT %s: status %d, want %d: %s", step.name, rec.Code, step.status, rec.Body)
		}
		if step.pi != nil {
			want[step.name] = step.pi
		}
	}
	for name, pi := range want {
		got, ok := s.Get(name)
		if !ok {
			t.Fatalf("%s: not stored", name)
		}
		if !core.Equal(got, pi, 0) || !bytes.Equal(codec.AppendBinary(nil, got), codec.AppendBinary(nil, pi)) {
			t.Errorf("%s: stored instance differs from the one PUT", name)
		}
	}
	for _, name := range []string{"bad", "huge"} {
		if _, ok := s.Get(name); ok {
			t.Errorf("%s: a refused PUT was stored", name)
		}
	}
}
