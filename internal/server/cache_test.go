package server

// Result-cache suite: the server memoizes scalar query answers keyed by
// (instance version, statement), so the properties that matter are
// invalidation — a Put or Delete must make stale answers unreachable
// immediately — and transparency — a cached answer must be byte-identical
// to a fresh evaluation, under any interleaving of mutations and queries,
// and even when the backing store has degraded to read-only.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/engine"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
	"pxml/internal/store"
	"pxml/internal/vfs"
)

// cacheStmts are scalar statements (no instance-valued results), so every
// one of them is eligible for the result cache. They include tree-only
// fast paths (VAL, COUNT, MARGINALS), so the fixtures below are trees.
var cacheStmts = []string{
	"PROB OBJECT A1",
	"PROB EXISTS R.book.author",
	"PROB VAL(R.book.title) = VQDB",
	"PROB R.book = B1",
	"COUNT R.book.author",
	"STATS",
	"MARGINALS",
}

// treeBib builds a tree-shaped bibliography whose T1 value distribution
// puts vqdbP on "VQDB" — two different vqdbP values give two instances
// whose cached answers must never be confused.
func treeBib(t *testing.T, vqdbP float64) *core.ProbInstance {
	t.Helper()
	pi := core.NewProbInstance("R")
	if err := pi.RegisterType(model.NewType("title-type", "VQDB", "Lore")); err != nil {
		t.Fatal(err)
	}
	pi.SetLCh("R", "book", "B1", "B2")
	w := prob.NewOPF()
	w.Put(sets.NewSet("B1"), 0.3)
	w.Put(sets.NewSet("B2"), 0.2)
	w.Put(sets.NewSet("B1", "B2"), 0.5)
	pi.SetOPF("R", w)
	pi.SetLCh("B1", "author", "A1")
	pi.SetLCh("B1", "title", "T1")
	w1 := prob.NewOPF()
	w1.Put(sets.NewSet(), 0.1)
	w1.Put(sets.NewSet("A1"), 0.3)
	w1.Put(sets.NewSet("T1"), 0.2)
	w1.Put(sets.NewSet("A1", "T1"), 0.4)
	pi.SetOPF("B1", w1)
	pi.SetLCh("B2", "author", "A2")
	w2 := prob.NewOPF()
	w2.Put(sets.NewSet("A2"), 1)
	pi.SetOPF("B2", w2)
	if err := pi.SetLeafType("T1", "title-type"); err != nil {
		t.Fatal(err)
	}
	v := prob.NewVPF()
	v.Put("VQDB", vqdbP)
	v.Put("Lore", 1-vqdbP)
	pi.SetVPF("T1", v)
	if err := pi.Validate(); err != nil {
		t.Fatal(err)
	}
	return pi
}

// runJSON executes one statement and returns the marshaled result, so
// tests compare answers byte-for-byte rather than field-by-field.
func runJSON(t *testing.T, eng *engine.Engine, stmt string) []byte {
	t.Helper()
	res, err := eng.Run(context.Background(), stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestResultCacheInvalidationOnPut(t *testing.T) {
	s := MustNew(Config{})
	fig := treeBib(t, 0.6)
	varied := treeBib(t, 0.9)
	if err := s.Put("x", fig); err != nil {
		t.Fatal(err)
	}
	const stmt = "PROB VAL(R.book.title) = VQDB" // answer differs between the two fixtures
	eng, _ := s.Engine("x")
	first := runJSON(t, eng, stmt)
	if again := runJSON(t, eng, stmt); !bytes.Equal(first, again) {
		t.Fatalf("cached answer diverged: %s vs %s", first, again)
	}

	if err := s.Put("x", varied); err != nil {
		t.Fatal(err)
	}
	eng2, _ := s.Engine("x")
	got := runJSON(t, eng2, stmt)
	want := runJSON(t, engine.New(varied), stmt)
	if !bytes.Equal(got, want) {
		t.Fatalf("after Put: got %s, want fresh %s", got, want)
	}
	if bytes.Equal(got, first) {
		t.Fatalf("stale answer served after Put: %s", got)
	}
}

func TestResultCacheInvalidationOnDelete(t *testing.T) {
	s := MustNew(Config{})
	fig := treeBib(t, 0.6)
	varied := treeBib(t, 0.9)
	if err := s.Put("x", fig); err != nil {
		t.Fatal(err)
	}
	const stmt = "PROB VAL(R.book.title) = VQDB"
	eng, _ := s.Engine("x")
	stale := runJSON(t, eng, stmt)

	if ok, err := s.Delete("x"); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, ok := s.Engine("x"); ok {
		t.Fatal("engine survived Delete")
	}
	if err := s.Put("x", varied); err != nil {
		t.Fatal(err)
	}
	eng2, _ := s.Engine("x")
	got := runJSON(t, eng2, stmt)
	want := runJSON(t, engine.New(varied), stmt)
	if !bytes.Equal(got, want) {
		t.Fatalf("after Delete+Put: got %s, want %s", got, want)
	}
	if bytes.Equal(got, stale) {
		t.Fatalf("stale answer served after Delete+Put: %s", got)
	}
}

func TestResultCacheServesDegradedStore(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	s, err := New(Config{StoreDir: t.TempDir(), StoreOptions: store.Options{Fsync: store.FsyncAlways, FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fig := fixtures.Figure2()
	if err := s.Put("bib", fig); err != nil {
		t.Fatal(err)
	}
	const stmt = "PROB OBJECT A1"
	eng, _ := s.Engine("bib")
	before := runJSON(t, eng, stmt)

	// Degrade the store: writes fail, the served catalog must not change,
	// and queries keep answering — from cache where possible.
	ffs.FailAll(vfs.OpSync, "wal")
	if err := s.Put("bib", fixtures.Figure2VariedLeaves()); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("Put on degraded store = %v, want ErrDegraded", err)
	}
	eng2, _ := s.Engine("bib")
	if eng2 != eng {
		t.Fatal("rejected Put replaced the engine")
	}
	hitsBefore := eng.Metrics()["result_cache_hits"].(int64)
	after := runJSON(t, eng, stmt)
	if !bytes.Equal(before, after) {
		t.Fatalf("degraded store changed a query answer: %s vs %s", before, after)
	}
	if hits := eng.Metrics()["result_cache_hits"].(int64); hits <= hitsBefore {
		t.Fatalf("query on degraded store missed the cache (hits %d -> %d)", hitsBefore, hits)
	}
	if !bytes.Equal(after, runJSON(t, engine.New(fig), stmt)) {
		t.Fatal("cached answer diverged from fresh evaluation")
	}
}

// escapeDoc is a tree whose label and object ids need JSON escaping in
// every answer that names them.
const escapeDoc = "pxml/1\nroot R\nlch R a<b 1 2 X&1 Y\"2\nopf R 0.25 X&1\nopf R 0.75 X&1 Y\"2\n"

// escapeServer serves escapeDoc as instance "esc" through Handler().
func escapeServer(t *testing.T) (*core.ProbInstance, func(url, stmt string) (int, []byte)) {
	t.Helper()
	pi, err := codec.DecodeTextBytes([]byte(escapeDoc))
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(Config{RequestTimeout: time.Minute})
	t.Cleanup(func() { s.Close() })
	if err := s.Put("esc", pi); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	return pi, func(url, stmt string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(stmt)))
		return rec.Code, rec.Body.Bytes()
	}
}

// TestCachedBodyIsTheMissBody: a hit writes the body rendered when its
// miss filled the cache, byte for byte what encoding/json makes of the
// result, and a statement the cache does not keep (SELECT) renders the
// same bytes on every request.
func TestCachedBodyIsTheMissBody(t *testing.T) {
	pi, post := escapeServer(t)
	for _, stmt := range []string{`PROB R.a<b = X&1`, `PROB EXISTS R.a<b`, `PROB OBJECT Y"2`, `SELECT R.a<b = Y"2`} {
		res, err := engine.New(pi).Run(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(apiv1.QueryResponse{Text: res.Text, Prob: res.Prob}); err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(want.Bytes(), '\\') < 0 {
			t.Fatalf("%s: %s escapes nothing", stmt, want.Bytes())
		}
		code, miss := post("/v1/instances/esc/query", stmt)
		if code != http.StatusOK || !bytes.Equal(miss, want.Bytes()) {
			t.Fatalf("%s: first answer %d %s, want %s", stmt, code, miss, want.Bytes())
		}
		for i := 0; i < 2; i++ {
			if code, again := post("/v1/instances/esc/query", stmt); code != http.StatusOK || !bytes.Equal(again, miss) {
				t.Errorf("%s: answer %d is %d %s, the first was %s", stmt, i+2, code, again, miss)
			}
		}
	}
}

// TestStoreQueryNamesWhatItStored: a ?store= statement's answer carries
// "stored" however its result was reached: after the same statement ran
// without ?store=, and shared with concurrent callers of the statement,
// each storing under its own name.
func TestStoreQueryNamesWhatItStored(t *testing.T) {
	_, post := escapeServer(t)
	const stmt = `SELECT R.a<b = Y"2`
	if code, body := post("/v1/instances/esc/query", stmt); code != http.StatusOK {
		t.Fatalf("plain query: %d %s", code, body)
	}
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = post(fmt.Sprintf("/v1/instances/esc/query?store=v%d", i), stmt)
		}(i)
	}
	wg.Wait()
	for i, body := range bodies {
		var qr apiv1.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil || qr.Stored != fmt.Sprintf("v%d", i) || qr.Prob == nil || *qr.Prob != 0.75 {
			t.Errorf("?store=v%d answered %s (%v)", i, body, err)
		}
		if code, _ := post(fmt.Sprintf("/v1/instances/v%d/query", i), "STATS"); code != http.StatusOK {
			t.Errorf("v%d was not stored: STATS answers %d", i, code)
		}
	}
}

// TestResultCacheRandomizedInterleaving drives a random sequence of
// Put/query/Delete operations and checks, at every query, that the
// (possibly cached) answer is byte-identical to a fresh, uncached
// evaluation against the instance currently installed.
func TestResultCacheRandomizedInterleaving(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := MustNew(Config{})
	instances := []*core.ProbInstance{treeBib(t, 0.6), treeBib(t, 0.9)}
	var cur *core.ProbInstance
	queries := 0
	for i := 0; i < 300; i++ {
		switch op := r.Intn(10); {
		case op < 2: // Put (replace or install)
			cur = instances[r.Intn(len(instances))]
			if err := s.Put("x", cur); err != nil {
				t.Fatal(err)
			}
		case op == 2: // Delete
			if _, err := s.Delete("x"); err != nil {
				t.Fatal(err)
			}
			cur = nil
		default: // Query
			if cur == nil {
				continue
			}
			eng, ok := s.Engine("x")
			if !ok {
				t.Fatal("instance missing")
			}
			stmt := cacheStmts[r.Intn(len(cacheStmts))]
			got := runJSON(t, eng, stmt)
			want := runJSON(t, engine.New(cur), stmt)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: %s: cached %s != fresh %s", i, stmt, got, want)
			}
			queries++
		}
	}
	if queries < 100 {
		t.Fatalf("only %d queries exercised; interleaving too thin", queries)
	}
}
