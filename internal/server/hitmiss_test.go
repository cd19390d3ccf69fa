package server

// Hits against misses: a statement the result cache answers skips the
// breaker, the request deadline and the engine's stopwatch (DESIGN §24),
// so what it must still share with the miss that filled the cache is
// checked here — the response, byte for byte and header for header, the
// breaker rule (a breaker guards evaluation, not cached answers) and the
// metrics a hit/miss sequence leaves.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/fixtures"
	"pxml/internal/govern"
	"pxml/internal/pxql"
)

// breakerClock is a settable clock for a server's breaker.
type breakerClock struct{ now time.Time }

func (c *breakerClock) Now() time.Time { return c.now }

// hitMissServer serves fixtures.Figure2 as "fig" behind a breaker that
// opens after threshold trips, stays open an hour, admits probes half-open
// probes and reads clk, so Retry-After is the same on every answer.
func hitMissServer(t *testing.T, threshold, probes int, clk *breakerClock) *Server {
	t.Helper()
	s := MustNew(Config{QueryMaxNodes: 1 << 16})
	t.Cleanup(func() { s.Close() })
	s.breaker = govern.NewBreaker(govern.BreakerConfig{Threshold: threshold, Cooldown: time.Hour, Probes: probes, Now: clk.Now})
	if err := s.Put("fig", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	return s
}

// openBreakers opens the breaker of every statement shape on "fig".
func openBreakers(s *Server, threshold int) {
	for _, shape := range pxql.Shapes {
		for i := 0; i < threshold; i++ {
			s.breaker.Record("fig."+shape, true)
		}
	}
}

// send posts stmt to fig's query route through Handler().
func send(s *Server, stmt string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/instances/fig/query", strings.NewReader(stmt)))
	return rec
}

// sameResponse reports how a and b differ in status, headers or body, or
// "" if they do not.
func sameResponse(a, b *httptest.ResponseRecorder) string {
	switch {
	case a.Code != b.Code:
		return fmt.Sprintf("status %d, then %d", a.Code, b.Code)
	case fmt.Sprint(a.Header()) != fmt.Sprint(b.Header()):
		return fmt.Sprintf("headers %v, then %v", a.Header(), b.Header())
	case a.Body.String() != b.Body.String():
		return fmt.Sprintf("body %q, then %q", a.Body, b.Body)
	}
	return ""
}

// hitMissSeeds are statements of every shape on Figure 2, some that fail
// and some whose results the cache does not keep.
var hitMissSeeds = []string{
	"PROB R.book = B1", "PROB R.book.author = A1", "PROB EXISTS R.book", "PROB OBJECT B1",
	"PROB VAL(R.book.title) = VQDB", "STATS", "MARGINALS", "COUNT R.book.author", "WORLDS 2",
	"TOPK 2", "ESTIMATE 50 EXISTS R.book", "ESTIMATE 100000 EXISTS R.book", "PROJECT R.book.author",
	"SELECT R.book = B1", "CHAIN R.B1", "FROBNICATE", "", "PROB", "prob r.BOOK = b1", "PROB OBJECT nobody",
}

// FuzzHitMissDifferential sends a statement twice through Handler() and
// requires the second answer — a hit when the first filled the cache —
// to equal the first in status, headers and body. With open set, every
// shape's breaker is open before the first send; with reopen, it is opened
// between the two sends, when a kept answer must still be served unchanged
// and anything else must be shed as breaker_open.
func FuzzHitMissDifferential(f *testing.F) {
	for _, stmt := range hitMissSeeds {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(stmt, mode)
		}
	}
	f.Fuzz(func(t *testing.T, stmt string, mode uint8) {
		const threshold = 2 // one trip per send never opens the breaker alone
		s := hitMissServer(t, threshold, 1, &breakerClock{now: time.Unix(1e9, 0)})
		open, reopen := mode%3 == 1, mode%3 == 2
		if open {
			openBreakers(s, threshold)
		}
		first := send(s, stmt)
		kept := s.results.Len() == 1
		if reopen {
			openBreakers(s, threshold)
		}
		second := send(s, stmt)
		if reopen && !kept {
			if first.Code == http.StatusOK && apiv1.ErrorFromBody(second.Code, second.Body.Bytes()).Code != apiv1.CodeBreakerOpen {
				t.Fatalf("%q, not kept, after its breaker opened: %d %s; want breaker_open", stmt, second.Code, second.Body)
			}
			return
		}
		if diff := sameResponse(first, second); diff != "" {
			t.Fatalf("%q (mode %d, kept %v): %s", stmt, mode%3, kept, diff)
		}
	})
}

// TestCachedAnswerOutlivesBreaker walks the breaker rule for cached
// answers: the breaker guards evaluation, so a cached statement is served
// whatever its shape's breaker state, an uncached one of the same shape is
// shed, and a hit is neither a half-open probe nor a success recorded
// against the breaker.
func TestCachedAnswerOutlivesBreaker(t *testing.T) {
	const cached, uncached, key = "PROB R.book = B1", "PROB R.book.author = A1", "fig.point"
	clk := &breakerClock{now: time.Unix(1e9, 0)}
	s := hitMissServer(t, 1, 2, clk)
	state := func() string { return s.breaker.Status()[key].State }

	miss := send(s, cached)
	if miss.Code != http.StatusOK || s.results.Len() != 1 {
		t.Fatalf("miss: %d %s, %d cached", miss.Code, miss.Body, s.results.Len())
	}
	s.breaker.Record(key, true)
	if state() != "open" {
		t.Fatalf("breaker %s after a trip, want open", state())
	}
	if hit := send(s, cached); sameResponse(miss, hit) != "" {
		t.Fatalf("cached statement under an open breaker: %s", sameResponse(miss, hit))
	}
	shed := send(s, uncached)
	if e := apiv1.ErrorFromBody(shed.Code, shed.Body.Bytes()); shed.Code != http.StatusServiceUnavailable || e.Code != apiv1.CodeBreakerOpen {
		t.Fatalf("uncached statement of the open shape: %d %s, want 503 breaker_open", shed.Code, shed.Body)
	}
	if got := s.breakerShed.Value(); got != 1 {
		t.Errorf("breaker_shed = %d, want 1 (the hit is not shed)", got)
	}

	// Past the cooldown the first evaluation is a probe: it succeeds, and
	// with two probes to pass the breaker stays half-open.
	clk.now = clk.now.Add(2 * time.Hour)
	if rec := send(s, "PROB EXISTS R.book.author"); rec.Code != http.StatusOK {
		t.Fatalf("exists: %d %s", rec.Code, rec.Body)
	}
	if rec := send(s, "PROB OBJECT B2"); rec.Code != http.StatusOK || state() != "half-open" {
		t.Fatalf("first probe: %d %s, breaker %s; want 200 and half-open", rec.Code, rec.Body, state())
	}
	for i := 0; i < 3; i++ {
		if hit := send(s, cached); sameResponse(miss, hit) != "" {
			t.Fatalf("hit %d under a half-open breaker: %s", i, sameResponse(miss, hit))
		}
	}
	if state() != "half-open" {
		t.Fatalf("breaker %s after hits, want half-open: a hit is no probe's success", state())
	}
	// The second probe slot was not used up by the hits.
	if rec := send(s, uncached); rec.Code != http.StatusOK || state() != "closed" {
		t.Fatalf("second probe: %d %s, breaker %s; want 200 and closed", rec.Code, rec.Body, state())
	}
}

// TestHitMissMetrics: the /v1/metrics counts a miss followed by two hits
// leaves, name by name — the same whichever path served each request.
func TestHitMissMetrics(t *testing.T) {
	s := hitMissServer(t, 5, 1, &breakerClock{now: time.Unix(1e9, 0)})
	for i := 0; i < 3; i++ {
		if rec := send(s, "PROB R.book = B1"); rec.Code != http.StatusOK {
			t.Fatalf("send %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec := send(s, "PROB R.book.nothing = B1"); rec.Code != http.StatusOK {
		t.Fatalf("second statement: %d %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	flattenCounts("", m, got)
	want := map[string]float64{
		"server.http_requests":                         4,
		"server.http_errors":                           0,
		"server.http_latency":                          4,
		"server.http_latency.query":                    4,
		"server.pxql_latency.point":                    4,
		"server.query_cost_est_steps.point":            2,
		"server.query_cost_actual_steps.point":         2,
		"server.breaker_state.fig.point":               0,
		"server.breaker_shed":                          0,
		"governor.breaker.fig.point.opens":             0,
		"governor.breaker.fig.point.shed":              0,
		"governor.breaker.fig.point.consecutive_trips": 0,
		"result_cache.hits":                            2,
		"result_cache.misses":                          2,
		"result_cache.collapsed":                       0,
		"result_cache.entries":                         2,
		"instances.fig.queries":                        4,
		"instances.fig.errors":                         0,
		"instances.fig.result_cache_hits":              2,
		"instances.fig.result_cache_misses":            2,
		"instances.fig.latency":                        4,
	}
	var diffs []string
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			diffs = append(diffs, fmt.Sprintf("%s = %v (present %v), want %v", name, g, ok, w))
		}
	}
	// No other timer, histogram or breaker entry counts anything.
	for name := range got {
		if _, ok := want[name]; !ok && got[name] != 0 && (strings.Contains(name, "latency") || strings.Contains(name, "steps") || strings.Contains(name, "breaker")) {
			diffs = append(diffs, fmt.Sprintf("unexpected %s = %v", name, got[name]))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Fatalf("metrics after a miss, two hits and a miss:\n%s", strings.Join(diffs, "\n"))
	}
}

// flattenCounts collects the numbers of a /v1/metrics payload under
// dotted names, a timer or histogram by its count.
func flattenCounts(prefix string, v any, out map[string]float64) {
	switch v := v.(type) {
	case float64:
		out[prefix] = v
	case map[string]any:
		if c, ok := v["count"].(float64); ok && slices.ContainsFunc([]string{"p50_ms", "mean"}, func(k string) bool { _, ok := v[k]; return ok }) {
			out[prefix] = c
			return
		}
		for k, x := range v {
			name := k
			if prefix != "" {
				name = prefix + "." + k
			}
			flattenCounts(name, x, out)
		}
	}
}
