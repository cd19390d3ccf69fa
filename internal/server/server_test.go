package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pxml/internal/apiv1"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/prob"
	"pxml/internal/sets"
	"pxml/internal/store"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerWith(t, Config{})
}

// newTestServerWith serves New(cfg) over a test listener; both are torn
// down with the test.
func newTestServerWith(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func figure2Text(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.EncodeText(&buf, fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func do(t *testing.T, method, url, body, contentType string) (*http.Response, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	text := figure2Text(t)

	resp, body := do(t, "PUT", ts.URL+"/v1/instances/bib", text, "text/plain")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"objects":11`) {
		t.Errorf("PUT response: %s", body)
	}

	// Fetch back as text and as JSON.
	resp, body = do(t, "GET", ts.URL+"/v1/instances/bib", "", "")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "pxml/1") {
		t.Fatalf("GET text status %d: %.60s", resp.StatusCode, body)
	}
	back, err := codec.DecodeText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decoding served instance: %v", err)
	}
	if back.NumObjects() != 11 {
		t.Errorf("served instance objects = %d", back.NumObjects())
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/instances/bib", nil)
	req.Header.Set("Accept", "application/json")
	jr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if _, err := codec.DecodeJSON(jr.Body); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}

	// List.
	resp, body = do(t, "GET", ts.URL+"/v1/instances", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"name":"bib"`) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"tree":false`) {
		t.Errorf("list should mark Figure 2 as non-tree: %s", body)
	}

	// Delete.
	resp, _ = do(t, "DELETE", ts.URL+"/v1/instances/bib", "", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/v1/instances/bib", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status %d", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")

	// Probability query (DAG instance: pxql falls back to BN inference).
	resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "PROB OBJECT A1", "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var qr struct {
		Text string   `json:"text"`
		Prob *float64 `json:"prob"`
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Prob == nil || *qr.Prob < 0.879 || *qr.Prob > 0.881 {
		t.Errorf("P(A1) = %v", qr.Prob)
	}

	// Bad statement.
	resp, _ = do(t, "POST", ts.URL+"/v1/instances/bib/query", "FROBNICATE", "text/plain")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad statement status %d", resp.StatusCode)
	}

	// Unknown instance.
	resp, _ = do(t, "POST", ts.URL+"/v1/instances/nope/query", "STATS", "text/plain")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown instance status %d", resp.StatusCode)
	}
}

func TestQueryStoreResult(t *testing.T) {
	s, ts := newTestServer(t)
	// Store a tree instance so the algebra fast paths apply.
	var buf bytes.Buffer
	if err := codec.EncodeText(&buf, smallTree()); err != nil {
		t.Fatal(err)
	}
	do(t, "PUT", ts.URL+"/v1/instances/t", buf.String(), "text/plain")

	resp, body := do(t, "POST", ts.URL+"/v1/instances/t/query?store=proj", "PROJECT r.a", "text/plain")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"stored":"proj"`) {
		t.Fatalf("store query: %d %s", resp.StatusCode, body)
	}
	if _, ok := s.Get("proj"); !ok {
		t.Error("stored result missing from catalog")
	}
	// Storing a scalar result fails.
	resp, _ = do(t, "POST", ts.URL+"/v1/instances/t/query?store=x", "STATS", "text/plain")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("scalar store status %d", resp.StatusCode)
	}
}

// TestStoredSelectionIsAView: SELECT …?store=v keeps a result that shares
// its source's tables. Both names must answer for their own distribution,
// the source must read back byte-identical, and v must outlive its source —
// in memory and through the durable store's encoder.
func TestStoredSelectionIsAView(t *testing.T) {
	for _, cfg := range []Config{{}, {StoreDir: t.TempDir()}} {
		s := MustNew(cfg)
		ts := httptest.NewServer(s.Handler())
		var buf bytes.Buffer
		if err := codec.EncodeText(&buf, smallTree()); err != nil {
			t.Fatal(err)
		}
		do(t, "PUT", ts.URL+"/v1/instances/t", buf.String(), "text/plain")
		_, before := do(t, "GET", ts.URL+"/v1/instances/t", "", "")

		resp, body := do(t, "POST", ts.URL+"/v1/instances/t/query?store=v", "SELECT r.a.b = y", "text/plain")
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"stored":"v"`) || !strings.Contains(body, `"prob":0.35`) {
			t.Fatalf("store query: %d %s", resp.StatusCode, body)
		}
		ask := func(name, stmt, want string) {
			t.Helper()
			if _, body := do(t, "POST", ts.URL+"/v1/instances/"+name+"/query", stmt, "text/plain"); !strings.Contains(body, want) {
				t.Errorf("%s on %s: %s, want %s", stmt, name, body, want)
			}
		}
		ask("v", "PROB r.a = x", `"prob":1`)
		ask("v", "PROB r.a.b = y", `"prob":1`)
		ask("t", "PROB r.a = x", `"prob":0.7`)
		ask("t", "PROB r.a.b = y", `"prob":0.35`)
		if _, after := do(t, "GET", ts.URL+"/v1/instances/t", "", ""); after != before {
			t.Errorf("source changed by a stored selection:\n%s\nwas:\n%s", after, before)
		}
		do(t, "DELETE", ts.URL+"/v1/instances/t", "", "")
		ask("v", "PROB r.a.b = y", `"prob":1`)
		ask("v", "STATS", "objects=3")
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPutRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := do(t, "PUT", ts.URL+"/v1/instances/x", "not an instance", "text/plain")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT status %d", resp.StatusCode)
	}
	// Structurally broken instance (child under two labels).
	bad := "pxml/1\nroot r\nlch r a 0 1 x\nlch r b 0 1 x\n"
	resp, _ = do(t, "PUT", ts.URL+"/v1/instances/x", bad, "text/plain")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid PUT status %d", resp.StatusCode)
	}
}

func TestDotEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")
	resp, body := do(t, "GET", ts.URL+"/v1/instances/bib/dot", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dot status %d", resp.StatusCode)
	}
	for _, want := range []string{"digraph pxml", `"R" -> "B1"`, "book (0.80)"} {
		if !strings.Contains(body, want) {
			t.Errorf("dot output missing %q:\n%s", want, body)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, ts := newTestServer(t)
	_ = s
	text := figure2Text(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			resp, _ := do(t, "PUT", ts.URL+"/v1/instances/"+name, text, "text/plain")
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("concurrent PUT status %d", resp.StatusCode)
			}
			resp, _ = do(t, "POST", ts.URL+"/v1/instances/"+name+"/query", "STATS", "text/plain")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent query status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if got := len(s.Names()); got != 8 {
		t.Errorf("stored instances = %d", got)
	}
}

// TestConcurrentPutsServeTheStoredInstance races eight PUTs of one name
// per round and checks that the server then serves the instance the store
// holds: an engine kept apart from the store's catalog can be installed
// out of commit order and serve a version the store has replaced.
func TestConcurrentPutsServeTheStoredInstance(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), StoreOptions: store.Options{Fsync: store.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 300; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Put("hot", smallTree()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		want, _ := s.store.Get("hot")
		if got, ok := s.Get("hot"); !ok || got != want {
			t.Fatalf("round %d: server serves %p, store holds %p", round, got, want)
		}
	}
}

// smallTree builds a tiny tree instance (so the algebra fast paths apply).
func smallTree() *core.ProbInstance {
	pi := core.NewProbInstance("r")
	pi.SetLCh("r", "a", "x")
	w := prob.NewOPF()
	w.Put(sets.NewSet(), 0.3)
	w.Put(sets.NewSet("x"), 0.7)
	pi.SetOPF("r", w)
	pi.SetLCh("x", "b", "y")
	wx := prob.NewOPF()
	wx.Put(sets.NewSet(), 0.5)
	wx.Put(sets.NewSet("y"), 0.5)
	pi.SetOPF("x", wx)
	return pi
}

func TestPersistentCatalog(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("tree", smallTree()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bib", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	// Invalid name for disk storage.
	if err := s.Put("../evil", smallTree()); err == nil {
		t.Error("path-escaping name accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh catalog over the same directory sees both instances.
	s2, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	names := s2.Names()
	if len(names) != 2 || names[0] != "bib" || names[1] != "tree" {
		t.Fatalf("restored names = %v", names)
	}
	pi, ok := s2.Get("bib")
	if !ok || pi.NumObjects() != 11 {
		t.Fatalf("restored bib = %v", pi)
	}

	// Delete is durable too.
	s2.Delete("tree")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if len(s3.Names()) != 1 {
		t.Errorf("names after delete = %v", s3.Names())
	}
}

func TestPersistentHTTPRejectsBadNames(t *testing.T) {
	s, ts := newTestServerWith(t, Config{StoreDir: t.TempDir()})
	resp, body := do(t, "PUT", ts.URL+"/v1/instances/has%2Fslash", figure2Text(t), "text/plain")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name status %d: %s", resp.StatusCode, body)
	}

	// A bad ?store= target is refused from the URL alone, before the
	// statement is evaluated.
	if err := s.Put("t", smallTree()); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/instances/t/query?store=has%2Fslash", "PROJECT r.a", "text/plain")
	if e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body)); resp.StatusCode != http.StatusBadRequest || e.Code != apiv1.CodeInvalidRequest {
		t.Fatalf("bad ?store= name: %d %s", resp.StatusCode, body)
	}
	eng, _ := s.Engine("t")
	if n := eng.Metrics()["queries"]; n != int64(0) {
		t.Errorf("engine ran %v statements for a refused ?store=, want 0", n)
	}
}

func TestPutOversizedBodyGets413(t *testing.T) {
	s := MustNew(Config{MaxBody: 512})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A syntactically valid prefix padded past the limit, so the only
	// possible failure is the size cap.
	var b strings.Builder
	b.WriteString("pxml/1\nroot r\n")
	for b.Len() < 2048 {
		b.WriteString("obj filler\n")
	}
	resp, body := do(t, "PUT", ts.URL+"/v1/instances/big", b.String(), "text/plain")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"error"`) {
		t.Errorf("413 body not structured JSON: %s", body)
	}
	// Within the limit the same shape is accepted.
	resp, body = do(t, "PUT", ts.URL+"/v1/instances/ok", "pxml/1\nroot r\n", "text/plain")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small PUT status %d: %s", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")
	for i := 0; i < 5; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "PROB OBJECT A1", "text/plain")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var m struct {
		Server struct {
			Requests int64 `json:"http_requests"`
			Errors   int64 `json:"http_errors"`
			Latency  struct {
				Count int64 `json:"count"`
			} `json:"http_latency"`
		} `json:"server"`
		Instances map[string]struct {
			Queries         int64 `json:"queries"`
			CacheHits       int64 `json:"cache_hits"`
			ResultCacheHits int64 `json:"result_cache_hits"`
		} `json:"instances"`
		ResultCache struct {
			Hits    int64 `json:"hits"`
			Entries int   `json:"entries"`
		} `json:"result_cache"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	// The runtime gauges land inside the server registry snapshot.
	var raw struct {
		Server map[string]json.RawMessage `json:"server"`
	}
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if m.Server.Requests < 6 || m.Server.Latency.Count < 6 {
		t.Errorf("server counters too low: %+v", m.Server)
	}
	bib := m.Instances["bib"]
	if bib.Queries != 5 {
		t.Errorf("bib queries = %d, want 5", bib.Queries)
	}
	// Repeated identical statements are answered from some cache layer:
	// the result cache short-circuits all but the first evaluation.
	if bib.CacheHits+bib.ResultCacheHits == 0 {
		t.Errorf("no cache hits after repeated queries\n%s", body)
	}
	if bib.ResultCacheHits != 4 {
		t.Errorf("bib result cache hits = %d, want 4", bib.ResultCacheHits)
	}
	if m.ResultCache.Hits != 4 || m.ResultCache.Entries != 1 {
		t.Errorf("result_cache = %+v, want 4 hits / 1 entry", m.ResultCache)
	}
	for _, gauge := range []string{"runtime_heap_alloc_bytes", "runtime_goroutines"} {
		if _, ok := raw.Server[gauge]; !ok {
			t.Errorf("metrics missing runtime gauge %s", gauge)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")

	batch := "PROB OBJECT A1\n\nSTATS\nFROBNICATE\n"
	resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/batch", batch, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var out []struct {
		Statement string   `json:"statement"`
		Text      string   `json:"text"`
		Prob      *float64 `json:"prob"`
		Error     string   `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("batch results = %d, want 3 (blank line skipped)", len(out))
	}
	if out[0].Prob == nil || *out[0].Prob < 0.879 || *out[0].Prob > 0.881 {
		t.Errorf("batch P(A1) = %v", out[0].Prob)
	}
	if !strings.Contains(out[1].Text, "objects=11") {
		t.Errorf("batch STATS = %q", out[1].Text)
	}
	if out[2].Error == "" {
		t.Error("bad statement in batch should carry an error")
	}

	// Empty batch is a 400.
	resp, _ = do(t, "POST", ts.URL+"/v1/instances/bib/batch", "\n\n", "text/plain")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status %d", resp.StatusCode)
	}
	// Unknown instance is a 404.
	resp, _ = do(t, "POST", ts.URL+"/v1/instances/nope/batch", "STATS", "text/plain")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown instance batch status %d", resp.StatusCode)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	s := MustNew(Config{Logger: slog.New(slog.NewJSONHandler(syncWriter{&mu, &buf}, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do(t, "GET", ts.URL+"/v1/instances", "", "")
	do(t, "GET", ts.URL+"/v1/instances/none", "", "")

	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(logged), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d:\n%s", len(lines), logged)
	}
	var entry struct {
		Msg    string `json:"msg"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Msg != "request" || entry.Method != "GET" || entry.Path != "/v1/instances/none" || entry.Status != 404 {
		t.Errorf("logged entry = %+v", entry)
	}
}

// syncWriter serializes writes from concurrent request goroutines.
type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestRetiredLayoutRefusedUnderStoreDir: a directory holding the retired
// one-file-per-instance layout fails New through Config.StoreDir with
// store.ErrRetiredLayout instead of serving an empty catalog over it.
func TestRetiredLayoutRefusedUnderStoreDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bib.pxml"), []byte(figure2Text(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{StoreDir: dir})
	if err == nil {
		s.Close()
		t.Fatal("New served a retired-layout directory")
	}
	if !errors.Is(err, store.ErrRetiredLayout) || !strings.Contains(err.Error(), "bib.pxml") {
		t.Fatalf("New = %v, want store.ErrRetiredLayout naming bib.pxml", err)
	}
}

// TestNewWithStoreReportAndMetrics checks that the store-backed catalog
// surfaces the recovery report and a "store" section under /v1/metrics.
func TestNewWithStoreReportAndMetrics(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.RecoveryReport(); rep == nil || rep.Recovered != 0 {
		t.Fatalf("fresh dir recovery report = %+v", rep)
	}
	if err := s.Put("tree", smallTree()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep2 := s2.RecoveryReport(); rep2.Recovered != 1 {
		t.Fatalf("reopen recovered %d, want 1 (%s)", rep2.Recovered, rep2)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var payload map[string]any
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	st, ok := payload["store"].(map[string]any)
	if !ok {
		t.Fatalf("metrics payload missing store section: %s", body)
	}
	if st["instances"].(float64) != 1 {
		t.Fatalf("store section = %v", st)
	}
	srvMetrics, ok := payload["server"].(map[string]any)
	if !ok {
		t.Fatalf("metrics payload missing server section: %s", body)
	}
	if _, ok := srvMetrics["store_wal_appends"]; !ok {
		t.Fatalf("server metrics missing store counters: %v", srvMetrics)
	}
}
