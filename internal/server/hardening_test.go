package server

// Hardening and degraded-mode coverage: health probes, panic recovery,
// the in-flight limiter, per-request deadlines, and the acceptance
// scenario from the fault-tolerance issue — with every fsync failing,
// the handler stack keeps serving reads and queries, writes answer 503,
// and /readyz reports the degradation.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pxml/internal/fixtures"
	"pxml/internal/store"
	"pxml/internal/vfs"
)

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestHealthzAndReadyz(t *testing.T) {
	s, ts := newTestServer(t)

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["uptime_s"].(float64); !ok {
		t.Fatalf("healthz missing uptime_s: %q", body)
	}

	if resp, body = get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz = %d %q", resp.StatusCode, body)
	}

	s.SetDraining(true)
	if resp, body = get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("draining readyz = %d %q", resp.StatusCode, body)
	}
	// Liveness is unaffected by draining.
	if resp, _ = get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
	s.SetDraining(false)
	if resp, _ = get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after drain cleared = %d", resp.StatusCode)
	}
}

// TestDegradedStoreKeepsServingReads is the issue's acceptance scenario:
// every fsync fails, yet the service stays up read-only.
func TestDegradedStoreKeepsServingReads(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	_, ts := newTestServerWith(t, Config{StoreDir: t.TempDir(), StoreOptions: store.Options{Fsync: store.FsyncAlways, FS: ffs}})
	client := ts.Client()

	putInstance := func(name string) *http.Response {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/instances/"+name, strings.NewReader(figure2Text(t)))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := putInstance("bib"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("healthy PUT = %d", resp.StatusCode)
	}

	// The disk dies: every subsequent fsync fails.
	ffs.FailAll(vfs.OpSync, "")

	// The write that trips the failure and every write after it: 503.
	if resp := putInstance("doomed"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degrading PUT = %d, want 503", resp.StatusCode)
	}
	if resp := putInstance("also-doomed"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT on degraded store = %d, want 503", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/instances/bib", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE on degraded store = %d, want 503", resp.StatusCode)
	}

	// Reads and queries keep serving from memory.
	if resp, _ := get(t, ts.URL+"/v1/instances/bib"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET on degraded store = %d, want 200", resp.StatusCode)
	}
	qresp, err := client.Post(ts.URL+"/v1/instances/bib/query", "text/plain",
		strings.NewReader("PROB EXISTS R.book"))
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query on degraded store = %d %s, want 200", qresp.StatusCode, qbody)
	}

	// Probes: alive, not ready, reason surfaced.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz on degraded store = %d", resp.StatusCode)
	}
	resp2, body := get(t, ts.URL+"/readyz")
	if resp2.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded"`) {
		t.Fatalf("readyz on degraded store = %d %q", resp2.StatusCode, body)
	}

	// /metrics carries the health section and the degraded gauge.
	_, mbody := get(t, ts.URL+"/v1/metrics")
	var m struct {
		Server map[string]any `json:"server"`
		Store  struct {
			Health store.Health `json:"health"`
		} `json:"store"`
	}
	if err := json.Unmarshal([]byte(mbody), &m); err != nil {
		t.Fatal(err)
	}
	if !m.Store.Health.Degraded || m.Store.Health.Reason == "" {
		t.Fatalf("metrics health = %+v, want degraded with reason", m.Store.Health)
	}
	if got := m.Server["store_degraded"].(float64); got != 1 {
		t.Fatalf("store_degraded gauge = %v, want 1", got)
	}
}

func TestInflightLimiterSheds(t *testing.T) {
	s := MustNew(Config{MaxInflight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var enteredOnce sync.Once
	h := s.limitInflight(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enteredOnce.Do(func() { close(entered) })
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered

	// The slot is taken: the next request is shed, not queued.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After (body %q)", body)
	}
	if got := s.reg.Counter("http_shed").Value(); got != 1 {
		t.Fatalf("http_shed = %d, want 1", got)
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// Slot free again: requests pass.
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after release = %d, want 200", resp.StatusCode)
	}
}

func TestHealthProbesBypassLimiter(t *testing.T) {
	s, ts := newTestServerWith(t, Config{MaxInflight: 1})

	// A PUT whose body never ends parks in the handler, holding the only
	// slot.
	body, feed := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/instances/parked", body)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	for len(s.sem) == 0 {
		time.Sleep(time.Millisecond)
	}
	if resp, _ := get(t, ts.URL+"/v1/instances"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("API request under saturation = %d, want 429", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz under saturation = %d, want 200", resp.StatusCode)
	}
	// Unblock the parked request before ts.Close waits on it.
	feed.Close()
	<-done
}

func TestPanicRecovery(t *testing.T) {
	s := MustNew(Config{})
	h := s.instrument(s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/instances", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != "internal" || body.Error.Message == "" {
		t.Fatalf("panic response body = %q, %v; want v1 error envelope", rec.Body.String(), err)
	}
	if got := s.reg.Counter("http_panics").Value(); got != 1 {
		t.Fatalf("http_panics = %d, want 1", got)
	}
	// The server keeps serving after the panic.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/instances", nil))
	if got := s.reg.Counter("http_panics").Value(); got != 2 {
		t.Fatalf("http_panics after second panic = %d, want 2", got)
	}
}

func TestRequestDeadlineAnswers503(t *testing.T) {
	// The deadline expires before the engine runs.
	s, ts := newTestServerWith(t, Config{RequestTimeout: time.Nanosecond})
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/instances/fig/query", "text/plain",
		strings.NewReader("PROB EXISTS R.book"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-deadline query = %d %s, want 503", resp.StatusCode, body)
	}
}
