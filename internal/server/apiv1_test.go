package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pxml/internal/admission"
	"pxml/internal/apiv1"
	"pxml/internal/fixtures"
)

// noRedirect returns a client that surfaces 3xx responses instead of
// following them, for asserting on the redirects themselves.
func noRedirect() *http.Client {
	return &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// TestLegacyPathsAnswer404: the pre-v1 unversioned paths are gone; they
// answer the not_found envelope, which names the prefix to use. A routed
// path asked with the wrong method stays a 405.
func TestLegacyPathsAnswer404(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ method, path string }{
		{"GET", "/instances"},
		{"GET", "/instances/fig"},
		{"POST", "/instances/fig/query"},
		{"GET", "/metrics"},
		{"POST", "/admin/scrub"},
		{"POST", "/instances/fig/query?store=x"},
		{"GET", "/v1/nonsense"},
	} {
		resp, body := do(t, tc.method, ts.URL+tc.path, "", "")
		e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body))
		if resp.StatusCode != http.StatusNotFound || e.Code != apiv1.CodeNotFound || !strings.Contains(e.Message, apiv1.Prefix) {
			t.Errorf("%s %s = %d %s, want the 404 not_found envelope naming %s", tc.method, tc.path, resp.StatusCode, body, apiv1.Prefix)
		}
	}
	if _, ok := s.Get("x"); ok {
		t.Error("a legacy ?store= query stored its result")
	}
	resp, _ := do(t, "POST", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Errorf("POST /v1/metrics = %d Allow %q, want 405 Allow GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestV1ErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/v1/instances/none", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body))
	if e.Code != apiv1.CodeNotFound || !strings.Contains(e.Message, "none") {
		t.Errorf("envelope = %+v", e)
	}

	// Unknown routes outside the API surface also answer the envelope.
	resp, body = do(t, "GET", ts.URL+"/nonsense", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body)); e.Code != apiv1.CodeNotFound {
		t.Errorf("unknown route envelope = %+v", e)
	}

	// Statement failures carry their own code.
	s, _ := newTestServer(t)
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "POST", ts2.URL+"/v1/instances/fig/query", "FROBNICATE", "text/plain")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad statement status = %d: %s", resp.StatusCode, body)
	}
	if e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body)); e.Code != apiv1.CodeStatementFailed {
		t.Errorf("bad statement envelope = %+v", e)
	}
}

func TestMetricsSchemaVersionAndOrdering(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	do(t, "POST", ts.URL+"/v1/instances/fig/query", "PROB EXISTS R.book", "text/plain")

	resp, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var payload struct {
		SchemaVersion int            `json:"schema_version"`
		UptimeS       float64        `json:"uptime_s"`
		Server        map[string]any `json:"server"`
		Admission     map[string]any `json:"admission"`
		Instances     map[string]any `json:"instances"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.SchemaVersion != metricsSchemaVersion {
		t.Errorf("schema_version = %d, want %d", payload.SchemaVersion, metricsSchemaVersion)
	}
	if payload.Admission == nil {
		t.Error("admission section missing")
	}
	// Section order is part of the schema: schema_version first, then
	// uptime_s, then the sections in declaration order.
	iv := strings.Index(body, `"schema_version"`)
	iu := strings.Index(body, `"uptime_s"`)
	is := strings.Index(body, `"server"`)
	ii := strings.Index(body, `"instances"`)
	if !(iv >= 0 && iv < iu && iu < is && is < ii) {
		t.Errorf("section order wrong: schema_version@%d uptime_s@%d server@%d instances@%d", iv, iu, is, ii)
	}

	// Per-endpoint and per-shape percentile timers are observable.
	var timers struct {
		Server map[string]json.RawMessage `json:"server"`
	}
	if err := json.Unmarshal([]byte(body), &timers); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"http_latency.query", "pxql_latency.exists"} {
		raw, ok := timers.Server[name]
		if !ok {
			t.Errorf("timer %q missing from /v1/metrics server section", name)
			continue
		}
		var snap struct {
			Count int64   `json:"count"`
			P50MS float64 `json:"p50_ms"`
			P99MS float64 `json:"p99_ms"`
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("timer %q: %v", name, err)
		}
		if snap.Count < 1 {
			t.Errorf("timer %q count = %d, want >= 1", name, snap.Count)
		}
	}
}

func TestAdmissionQuota429WithRetryAfter(t *testing.T) {
	s := MustNew(Config{
		DefaultQuota: admission.Quota{Rate: 1, Burst: 2},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}

	var lastResp *http.Response
	var lastBody string
	shed := 0
	for i := 0; i < 5; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/instances/fig/query", "STATS", "text/plain")
		if resp.StatusCode == http.StatusTooManyRequests {
			shed++
			lastResp, lastBody = resp, body
		}
	}
	if shed != 3 {
		t.Fatalf("shed %d of 5 with burst 2, want 3", shed)
	}
	if ra := lastResp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	e := apiv1.ErrorFromBody(lastResp.StatusCode, []byte(lastBody))
	if e.Code != apiv1.CodeQuotaExceeded {
		t.Errorf("shed envelope code = %q, want quota_exceeded", e.Code)
	}
	if e.RetryAfter <= 0 {
		t.Errorf("shed envelope retry_after_ms = %v, want > 0", e.RetryAfter)
	}
	if !e.Retryable() {
		t.Error("quota shed not marked retryable")
	}

	// The tenant is the whole decoded name: an encoded slash does not cut
	// it short (and so charge "has").
	do(t, "PUT", ts.URL+"/v1/instances/has%2Fslash", "pxml/1\nroot r\n", "text/plain")
	if n := s.reg.Counter("admission_admitted.has/slash").Value(); n != 1 {
		t.Errorf("admission_admitted.has/slash = %d, want 1 (has: %d)", n, s.reg.Counter("admission_admitted.has").Value())
	}
}

// TestTwoTenantOverloadIsolation is the acceptance scenario: a hot tenant
// hammering one instance is shed while a cold tenant querying another
// instance on the same server is admitted untouched.
func TestTwoTenantOverloadIsolation(t *testing.T) {
	s := MustNew(Config{
		DefaultQuota: admission.Quota{Rate: 5, Burst: 5},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Put("hot", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("cold", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}

	// Hot tenant: 30 concurrent requests against burst 5 — most shed.
	var wg sync.WaitGroup
	var mu sync.Mutex
	hotOK, hotShed := 0, 0
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := do(t, "POST", ts.URL+"/v1/instances/hot/query", "STATS", "text/plain")
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				hotOK++
			case http.StatusTooManyRequests:
				hotShed++
			}
		}()
	}
	wg.Wait()
	if hotShed == 0 {
		t.Fatalf("hot tenant never shed (ok=%d)", hotOK)
	}
	if hotOK == 0 {
		t.Fatalf("hot tenant fully starved, burst should admit some")
	}

	// Cold tenant: its own bucket is untouched by the hot tenant's burn.
	for i := 0; i < 5; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/instances/cold/query", "STATS", "text/plain")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold tenant request %d = %d: %s", i, resp.StatusCode, body)
		}
	}

	// The shed counters prove which tenant paid.
	if v := s.reg.Counter("admission_shed.hot").Value(); v == 0 {
		t.Error("admission_shed.hot = 0")
	}
	if v := s.reg.Counter("admission_shed.cold").Value(); v != 0 {
		t.Errorf("admission_shed.cold = %d, want 0", v)
	}
}

func TestQuotaRuntimeReload(t *testing.T) {
	s := MustNew(Config{
		DefaultQuota: admission.Quota{Rate: 0.001, Burst: 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}

	// Burn the single token; the next request sheds.
	do(t, "POST", ts.URL+"/v1/instances/fig/query", "STATS", "text/plain")
	resp, _ := do(t, "POST", ts.URL+"/v1/instances/fig/query", "STATS", "text/plain")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pre-reload status = %d, want 429", resp.StatusCode)
	}

	// Inspect the live state.
	resp, body := do(t, "GET", ts.URL+"/v1/admin/quotas", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET quotas = %d", resp.StatusCode)
	}
	var snap admission.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Default.Rate != 0.001 {
		t.Errorf("snapshot default rate = %g", snap.Default.Rate)
	}

	// Loosen at runtime; requests flow again immediately.
	reload := `{"default_quota": {"rate": 1000, "burst": 100}}`
	resp, body = do(t, "PUT", ts.URL+"/v1/admin/quotas", reload, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT quotas = %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, _ = do(t, "POST", ts.URL+"/v1/instances/fig/query", "STATS", "text/plain")
		if resp.StatusCode == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload status = %d, want 200", resp.StatusCode)
	}

	// Invalid quotas are rejected with the envelope, state unchanged.
	resp, body = do(t, "PUT", ts.URL+"/v1/admin/quotas", `{"default_quota": {"rate": 5, "burst": 0.1}}`, "application/json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid reload = %d: %s", resp.StatusCode, body)
	}
	if e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body)); e.Code != apiv1.CodeInvalidRequest {
		t.Errorf("invalid reload envelope = %+v", e)
	}
}

func TestAdmissionBypassForProbes(t *testing.T) {
	// Quota of nearly nothing: API requests shed, probes never do.
	s := MustNew(Config{
		DefaultQuota: admission.Quota{Rate: 0.001, Burst: 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	do(t, "GET", ts.URL+"/v1/instances", "", "") // burn the token
	for i := 0; i < 3; i++ {
		resp, _ := do(t, "GET", ts.URL+"/healthz", "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz shed by admission: %d", resp.StatusCode)
		}
	}
}

// TestRouteStacks walks the route table and checks, from inside each
// route's handler, which middleware its stack put around it. What a path
// is owed is stated here by prefix, not read back from the table's class;
// the query route's handler arms the request deadline itself, on a miss
// (TestLazyDeadline).
func TestRouteStacks(t *testing.T) {
	const token = "s3cret"
	s := MustNew(Config{
		AdminToken:     token,
		MaxInflight:    4,
		RequestTimeout: time.Minute,
		DefaultQuota:   admission.Quota{Rate: 1000, Burst: 1000},
	})
	for _, rt := range s.routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		var gated, admitted, limited, deadline bool
		switch {
		case path == "/healthz", path == "/readyz":
		case strings.HasPrefix(path, "/v1/repl/"):
			gated = true
		case strings.HasPrefix(path, "/v1/admin/"):
			gated, limited, deadline = true, true, true
		case path == queryPath:
			admitted, limited = true, true
		default:
			admitted, limited, deadline = true, true, true
		}

		ran := false
		spy := rt
		spy.handle = func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
			ran = true
			if got := s.adm.State().Inflight == 1; got != admitted {
				t.Errorf("%s: inside admission = %v, want %v", rt.pattern, got, admitted)
			}
			if got := len(s.sem) == 1; got != limited {
				t.Errorf("%s: inside the limiter = %v, want %v", rt.pattern, got, limited)
			}
			if _, got := ctx.Deadline(); got != deadline {
				t.Errorf("%s: under the deadline = %v, want %v", rt.pattern, got, deadline)
			}
		}
		h := s.instrument(s.stack(spy))

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		if gated != (rec.Code == http.StatusUnauthorized) || gated == ran {
			t.Errorf("%s without the token: status %d, handler ran = %v; want gated = %v", rt.pattern, rec.Code, ran, gated)
		}
		if gated {
			req := httptest.NewRequest(method, path, nil)
			req.Header.Set("Authorization", "Bearer "+token)
			h.ServeHTTP(httptest.NewRecorder(), req)
			if !ran {
				t.Errorf("%s with the token: handler did not run", rt.pattern)
			}
		}
	}
}

// TestRouteDeadlines walks the route table: every route under the request
// deadline hands its handler a context that expires RequestTimeout after
// the request arrived, keeps the request's values and is settled once the
// handler returns; every other route, and every route of a server without
// RequestTimeout, hands the request's own context. As in TestRouteStacks,
// what a path is owed is stated by prefix; the query route's handler arms
// the deadline itself, on a miss (TestLazyDeadline).
func TestRouteDeadlines(t *testing.T) {
	const timeout = time.Minute
	type key struct{}
	for _, cfg := range []Config{{RequestTimeout: timeout}, {}} {
		s := MustNew(cfg)
		for _, rt := range s.routes() {
			method, path, _ := strings.Cut(rt.pattern, " ")
			owed := cfg.RequestTimeout > 0 && path != "/healthz" && path != "/readyz" && !strings.HasPrefix(path, "/v1/repl/") && path != queryPath
			var seen context.Context
			spy := rt
			spy.handle = func(ctx context.Context, w http.ResponseWriter, r *http.Request) { seen = ctx }
			req := httptest.NewRequest(method, path, nil)
			req = req.WithContext(context.WithValue(req.Context(), key{}, "v"))
			before := time.Now()
			s.instrument(s.stack(spy)).ServeHTTP(httptest.NewRecorder(), req)
			after := time.Now()
			if seen == nil {
				t.Fatalf("%s (timeout %v): handler did not run", rt.pattern, cfg.RequestTimeout)
			}
			if seen.Value(key{}) != "v" {
				t.Errorf("%s: the handler's context lost the request's values", rt.pattern)
			}
			d, ok := seen.Deadline()
			if ok != owed {
				t.Errorf("%s (timeout %v): deadline %v, want one: %v", rt.pattern, cfg.RequestTimeout, ok, owed)
				continue
			}
			if !owed {
				if seen != req.Context() {
					t.Errorf("%s (timeout %v): handler got a context other than the request's", rt.pattern, cfg.RequestTimeout)
				}
				continue
			}
			if d.Before(before.Add(timeout)) || d.After(after.Add(timeout)) {
				t.Errorf("%s: deadline %v, want the request's arrival plus %v (within %v..%v)", rt.pattern, d, timeout, before.Add(timeout), after.Add(timeout))
			}
			if !errors.Is(seen.Err(), context.Canceled) {
				t.Errorf("%s: deadline not settled when the handler returned: %v", rt.pattern, seen.Err())
			}
		}
	}
}

// queryPath is the query route's pattern path.
const queryPath = "/v1/instances/{name}/query"

func TestConfigValidatesQuotasAndTelemetry(t *testing.T) {
	if _, err := New(Config{DefaultQuota: admission.Quota{Rate: 5, Burst: 0.1}}); err == nil {
		t.Error("New accepted unusable default quota")
	}
	if _, err := New(Config{TenantQuotas: map[string]admission.Quota{"x": {Weight: -1}}}); err == nil {
		t.Error("New accepted negative tenant weight")
	}
	if _, err := New(Config{StatsdAddr: "sink:8125", StatsdNetwork: "carrier-pigeon"}); err == nil {
		t.Error("New accepted unsupported statsd network")
	}
}

// TestPerEndpointTimersCoverRoutes spot-checks that distinct routes land
// in distinct percentile timers.
func TestPerEndpointTimersCoverRoutes(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	do(t, "GET", ts.URL+"/v1/instances", "", "")
	do(t, "GET", ts.URL+"/v1/instances/fig", "", "")
	do(t, "POST", ts.URL+"/v1/instances/fig/batch", "STATS\nPROB EXISTS R.book", "text/plain")
	do(t, "GET", ts.URL+"/v1/metrics", "", "")
	for _, name := range []string{"http_latency.list", "http_latency.get", "http_latency.batch", "http_latency.metrics"} {
		if s.reg.Timer(name).Count() < 1 {
			t.Errorf("timer %s not observed", name)
		}
	}
	// The batch fed the shape timers too: per-statement shapes recorded.
	if s.reg.Timer("pxql_latency.stats").Count() < 1 {
		t.Error("pxql_latency.stats not observed")
	}
	if s.reg.Timer("pxql_latency.exists").Count() < 1 {
		t.Error("pxql_latency.exists not observed")
	}
}

// TestTelemetryLifecycleThroughServer boots a server with a live UDP
// sink and checks flushes carry the server's metrics; Close stops the
// loop with a final flush.
func TestTelemetryLifecycleThroughServer(t *testing.T) {
	sink := newUDPSink(t)
	s := MustNew(Config{
		StatsdAddr:     sink.addr,
		StatsdInterval: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	do(t, "POST", ts.URL+"/v1/instances/fig/query", "PROB EXISTS R.book", "text/plain")

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if text := sink.text(); strings.Contains(text, "pxmld.http_requests:") &&
			strings.Contains(text, "pxmld.pxql_latency.exists.p99_ms:") &&
			strings.Contains(text, "pxmld.os_rss_bytes:") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	text := sink.text()
	for _, want := range []string{
		"pxmld.http_requests:",
		"pxmld.http_latency.query.p99_ms:",
		"pxmld.pxql_latency.exists.p99_ms:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sink missing %q in:\n%s", want, clip(text, 2000))
		}
	}
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// udpSink is a loopback datagram collector standing in for statsd.
type udpSink struct {
	addr string
	mu   sync.Mutex
	data []byte
}

func newUDPSink(t *testing.T) *udpSink {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	sk := &udpSink{addr: pc.LocalAddr().String()}
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			sk.mu.Lock()
			sk.data = append(sk.data, buf[:n]...)
			sk.data = append(sk.data, '\n')
			sk.mu.Unlock()
		}
	}()
	return sk
}

func (s *udpSink) text() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.data)
}
