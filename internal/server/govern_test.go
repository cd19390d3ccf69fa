package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/codec"
	"pxml/internal/gen"
	"pxml/internal/govern"
)

// newGovServer starts a test server with an explicit Config, for
// exercising the query-budget and circuit-breaker knobs.
func newGovServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// widthBombText encodes the adversarial diamond DAG of gen.WidthBomb: a
// few-KB upload whose compiled BN would need ~10^22 CPT cells.
func widthBombText(t *testing.T) string {
	t.Helper()
	pi, err := gen.WidthBomb(gen.BombConfig{Width: 12, Parents: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeText(&buf, pi); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// envCode decodes the v1 error envelope of a failed response.
func envCode(t *testing.T, resp *http.Response, body string) *apiv1.Error {
	t.Helper()
	return apiv1.ErrorFromBody(resp.StatusCode, []byte(body))
}

func TestGovernorConfigValidation(t *testing.T) {
	bad := []Config{
		{QueryDeadline: -time.Second},
		{QueryMaxNodes: -1},
		{QueryMaxBytes: -1},
		{BreakerThreshold: -1},
		{BreakerCooldown: -time.Second},
		{BreakerProbes: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: negative governor knob accepted", i)
		}
	}
	// All-zero is valid (governor fully off).
	if _, err := New(Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// TestQueryIntractableHTTP: a width-bomb inference is refused upfront
// with 422 intractable — a structural verdict, not a retryable one.
func TestQueryIntractableHTTP(t *testing.T) {
	_, ts := newGovServer(t, Config{QueryMaxNodes: 1 << 20, QueryMaxBytes: 64 << 20})
	if resp, body := do(t, "PUT", ts.URL+"/v1/instances/bomb", widthBombText(t), "text/plain"); resp.StatusCode/100 != 2 {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	start := time.Now()
	resp, body := do(t, "POST", ts.URL+"/v1/instances/bomb/query", "PROB OBJECT leaf0", "text/plain")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	if e := envCode(t, resp, body); e.Code != apiv1.CodeIntractable {
		t.Fatalf("code = %q, want %q", e.Code, apiv1.CodeIntractable)
	} else if e.Retryable() {
		t.Fatal("intractable must not be marked retryable")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("refusal took %v; admission must not build the network", d)
	}
}

// TestQueryBudgetExceededHTTP: a statement whose predicted cost overruns
// the step budget gets 503 budget_exceeded with a Retry-After hint.
func TestQueryBudgetExceededHTTP(t *testing.T) {
	_, ts := newGovServer(t, Config{QueryMaxNodes: 1000})
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")
	resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "ESTIMATE 1000000 EXISTS R.book", "text/plain")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	e := envCode(t, resp, body)
	if e.Code != apiv1.CodeBudgetExceeded {
		t.Fatalf("code = %q, want %q", e.Code, apiv1.CodeBudgetExceeded)
	}
	if !e.Retryable() || e.RetryAfter <= 0 {
		t.Fatalf("budget_exceeded must carry a retry hint, got %+v", e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After header")
	}
	// A statement under budget on the same server still succeeds.
	resp, body = do(t, "POST", ts.URL+"/v1/instances/bib/query", "ESTIMATE 20 EXISTS R.book", "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small estimate: %d %s", resp.StatusCode, body)
	}
}

// TestBreakerLifecycleHTTP drives the per-shape circuit breaker through
// closed → open → half-open → closed over the wire.
func TestBreakerLifecycleHTTP(t *testing.T) {
	cooldown := 300 * time.Millisecond
	_, ts := newGovServer(t, Config{
		QueryMaxNodes:    1000,
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
		BreakerProbes:    1,
	})
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")
	big := "ESTIMATE 1000000 EXISTS R.book"

	// Two budget trips open the estimate breaker.
	for i := 0; i < 2; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", big, "text/plain")
		if e := envCode(t, resp, body); e.Code != apiv1.CodeBudgetExceeded {
			t.Fatalf("trip %d: code = %q, want budget_exceeded", i, e.Code)
		}
	}
	// Now even a cheap estimate is shed without reaching the engine.
	resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "ESTIMATE 20 EXISTS R.book", "text/plain")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d: %s", resp.StatusCode, body)
	}
	if e := envCode(t, resp, body); e.Code != apiv1.CodeBreakerOpen {
		t.Fatalf("shed code = %q, want %q", e.Code, apiv1.CodeBreakerOpen)
	} else if e.RetryAfter <= 0 {
		t.Fatal("breaker_open must carry a retry hint")
	}
	// Other statement shapes are unaffected by the estimate breaker.
	if resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "STATS", "text/plain"); resp.StatusCode != http.StatusOK {
		t.Fatalf("unrelated shape shed too: %d %s", resp.StatusCode, body)
	}

	// After the cooldown a half-open probe that succeeds recloses it.
	time.Sleep(cooldown + 50*time.Millisecond)
	if resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "ESTIMATE 20 EXISTS R.book", "text/plain"); resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: %d %s", resp.StatusCode, body)
	}
	// Closed again: the next cheap estimate is admitted (not shed), and a
	// single new failure does not reopen (threshold is 2).
	if resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "ESTIMATE 20 EXISTS R.book", "text/plain"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reclose estimate: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/instances/bib/query", big, "text/plain")
	if e := envCode(t, resp, body); e.Code != apiv1.CodeBudgetExceeded {
		t.Fatalf("post-reclose failure code = %q, want budget_exceeded (breaker closed)", e.Code)
	}
}

// TestBatchBreakerShedsInline: statements of an open shape inside a batch
// are answered breaker_open per line without reaching the engine, while
// the rest of the batch still runs.
func TestBatchBreakerShedsInline(t *testing.T) {
	_, ts := newGovServer(t, Config{
		QueryMaxNodes:    1000,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")
	// One trip opens the estimate breaker (threshold 1).
	do(t, "POST", ts.URL+"/v1/instances/bib/query", "ESTIMATE 1000000 EXISTS R.book", "text/plain")

	resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/batch", "ESTIMATE 20 EXISTS R.book\nSTATS", "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	var out []struct {
		Statement string `json:"statement"`
		Error     string `json:"error,omitempty"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("batch body: %v (%s)", err, body)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d, want 2", len(out))
	}
	if e := out[0].Error; !strings.Contains(e, apiv1.CodeBreakerOpen) {
		t.Fatalf("estimate line error = %q, want breaker_open", e)
	}
	if out[1].Error != "" {
		t.Fatalf("STATS line failed: %q", out[1].Error)
	}
}

// TestMetricsGovernorSection: /v1/metrics reports the configured budget,
// live breaker states, and the query outcome counters.
func TestMetricsGovernorSection(t *testing.T) {
	_, ts := newGovServer(t, Config{
		QueryMaxNodes:    1 << 20,
		QueryMaxBytes:    64 << 20,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	do(t, "PUT", ts.URL+"/v1/instances/bomb", widthBombText(t), "text/plain")
	// One intractable refusal: counts, trips the point breaker.
	do(t, "POST", ts.URL+"/v1/instances/bomb/query", "PROB OBJECT leaf0", "text/plain")

	resp, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	var m struct {
		Server   map[string]any `json:"server"`
		Governor *struct {
			QueryMaxNodes int64                           `json:"query_max_nodes"`
			QueryMaxBytes int64                           `json:"query_max_bytes"`
			Breaker       map[string]govern.BreakerStatus `json:"breaker"`
		} `json:"governor"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Governor == nil {
		t.Fatalf("metrics missing governor section: %s", body)
	}
	if m.Governor.QueryMaxNodes != 1<<20 || m.Governor.QueryMaxBytes != 64<<20 {
		t.Fatalf("governor budget = %+v", m.Governor)
	}
	st, ok := m.Governor.Breaker["bomb.point"]
	if !ok || st.State != "open" {
		t.Fatalf("bomb.point breaker = %+v (ok=%v), want open", st, ok)
	}
	// The registry snapshot is a flat name → value map.
	if v, _ := m.Server["query_intractable"].(float64); v < 1 {
		t.Fatalf("query_intractable = %v, want >= 1", m.Server["query_intractable"])
	}
	if v, ok := m.Server["breaker_state.bomb.point"].(float64); !ok || v != 2 {
		t.Fatalf("breaker_state.bomb.point gauge = %v (ok=%v), want 2 (open)", v, ok)
	}
}

// TestChaosWidthBombShedding is the governor chaos drill: a stream of
// width-bomb queries hammers the server while health probes, writes, and
// healthy queries continue. Every bomb must be refused (intractable or
// shed by the breaker) and nothing else may degrade.
func TestChaosWidthBombShedding(t *testing.T) {
	_, ts := newGovServer(t, Config{
		QueryMaxNodes:    1 << 20,
		QueryMaxBytes:    64 << 20,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		BreakerProbes:    1,
	})
	if resp, body := do(t, "PUT", ts.URL+"/v1/instances/bomb", widthBombText(t), "text/plain"); resp.StatusCode/100 != 2 {
		t.Fatalf("bomb upload: %d %s", resp.StatusCode, body)
	}
	do(t, "PUT", ts.URL+"/v1/instances/bib", figure2Text(t), "text/plain")

	const attackers, rounds = 4, 8
	var wg sync.WaitGroup
	errs := make(chan string, attackers*rounds+3*rounds)
	for a := 0; a < attackers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, body := do(t, "POST", ts.URL+"/v1/instances/bomb/query", "PROB OBJECT leaf0", "text/plain")
				e := apiv1.ErrorFromBody(resp.StatusCode, []byte(body))
				switch e.Code {
				case apiv1.CodeIntractable, apiv1.CodeBreakerOpen:
				default:
					errs <- "bomb query: code " + e.Code + " status " + resp.Status
				}
			}
		}()
	}
	// Meanwhile the control plane and healthy tenants stay unaffected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if resp, _ := do(t, "GET", ts.URL+"/readyz", "", ""); resp.StatusCode != http.StatusOK {
				errs <- "readyz " + resp.Status
			}
			if resp, body := do(t, "PUT", ts.URL+"/v1/instances/w"+string(rune('a'+i)), figure2Text(t), "text/plain"); resp.StatusCode/100 != 2 {
				errs <- "write: " + resp.Status + " " + body
			}
			if resp, body := do(t, "POST", ts.URL+"/v1/instances/bib/query", "PROB OBJECT A1", "text/plain"); resp.StatusCode != http.StatusOK {
				errs <- "healthy query: " + resp.Status + " " + body
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
