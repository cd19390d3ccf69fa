package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pxml/internal/admission"
	"pxml/internal/apiv1"
)

// refHandler is Handler as it was while an http.ServeMux routed the
// table: the mux, its catch-all and the catch-all's method probes, moved
// verbatim. The one addition hands the matched {name} to the stack on the
// request's state, where the router hands it.
func (s *Server) refHandler(table []route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range table {
		h := s.stack(rt)
		mux.Handle(rt.pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.(*reqState).name = r.PathValue("name")
			h.ServeHTTP(w, r)
		}))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		// The catch-all also claims a routed path asked with the wrong
		// method, which the mux alone would answer 405: ask it which
		// methods the path does take.
		var allow []string
		probe := *r
		for _, m := range []string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodDelete} {
			probe.Method = m
			if _, pattern := mux.Handler(&probe); pattern != "/" {
				allow = append(allow, m)
			}
		}
		if len(allow) > 0 {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
			return
		}
		apiv1.WriteError(w, http.StatusNotFound, apiv1.CodeNotFound,
			fmt.Sprintf("no route %s (the API lives under %s)", r.URL.Path, apiv1.Prefix))
	})
	return s.instrument(s.recoverPanics(mux))
}

// echoTable is s's route table with every handler replaced by one that
// writes its route, its endpoint and the {name} it was handed, so that a
// response tells which route served it.
func echoTable(s *Server) []route {
	table := s.routes()
	for i := range table {
		rt := table[i]
		table[i].handle = func(_ context.Context, w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "%s|%s|%q", rt.pattern, rt.endpoint, w.(*reqState).name)
		}
	}
	return table
}

// routePair is the router and the mux it replaced over the same echo
// table, each on a server of its own so that neither sees the other's
// admission state.
type routePair struct{ got, want http.Handler }

func newRoutePair(tb testing.TB, cfg Config) routePair {
	tb.Helper()
	server := func() *Server {
		s := MustNew(cfg)
		tb.Cleanup(func() { s.Close() })
		return s
	}
	got, want := server(), server()
	return routePair{
		got:  got.instrument(got.recoverPanics(got.newRouter(echoTable(got)))),
		want: want.refHandler(echoTable(want)),
	}
}

// wireRequest parses "method target" as a server reads it off the wire,
// or reports false for a request line no server would accept.
func wireRequest(method, target string) (*http.Request, bool) {
	r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(
		method + " " + target + " HTTP/1.1\r\nHost: example.com\r\n\r\n")))
	return r, err == nil
}

// check serves one request line through both and returns the router's
// response, failing t on any difference from the mux's.
func (p routePair) check(t *testing.T, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	var recs [2]*httptest.ResponseRecorder
	for i, h := range []http.Handler{p.got, p.want} {
		r, ok := wireRequest(method, target)
		if !ok {
			return nil
		}
		recs[i] = httptest.NewRecorder()
		h.ServeHTTP(recs[i], r)
	}
	got, want := recs[0], recs[1]
	if got.Code != want.Code || got.Body.String() != want.Body.String() || !reflect.DeepEqual(got.Header(), want.Header()) {
		t.Errorf("%s %s: router %d %v %q, mux %d %v %q", method, target,
			got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
	}
	return got
}

// routeSeeds: every row of the table with every method, HEAD on the GET
// routes among them, and the corners of the mux's matching: escaped names
// and literals, empty and trailing segments, dot segments with a query,
// the asterisk target, and CONNECT in both its forms.
func routeSeeds() [][2]string {
	methods := []string{"GET", "HEAD", "PUT", "POST", "DELETE", "PATCH", "OPTIONS", "CONNECT"}
	var seeds [][2]string
	for _, rt := range (&Server{}).routes() {
		_, path, _ := strings.Cut(rt.pattern, " ")
		for _, m := range methods {
			seeds = append(seeds, [2]string{m, strings.Replace(path, "{name}", "x", 1)})
		}
	}
	for _, target := range []string{
		"/", "/v1", "/v1/", "/v1/instances/", "/v1/instances//query", "/v1//instances/x",
		"/./?a=1", "/..?a=1&b", "/v1/instances/x/../y/query?store=z", "/v1/instances/x/.",
		"/v1/instances/a%2Fb", "/v1/instances/a%2Fb/query", "/v1/instances/%78", "/v1/instances/%2F/query",
		"/v1/%69nstances/x/dot", "/v1%2Finstances/x", "/v1/instances/a%2Fb/qu%2Fery", "/v1/instances/%zz",
		"/v1/instances/x/", "/healthz/", "/v1/metrics/", "/instances/x", "/v1/instances/x/query/more",
		"/v1/instances/a b", "/v1/instances/%2e%2e/query", "*", "example.com:443", "/v1/instances/x?",
	} {
		for _, m := range methods {
			seeds = append(seeds, [2]string{m, target})
		}
	}
	return seeds
}

// FuzzRouteDifferential: the router answers every request line as the
// mux and catch-all it replaced did — status, headers (Location, Allow),
// body, the route that served it and the {name} that route was handed.
func FuzzRouteDifferential(f *testing.F) {
	for _, seed := range routeSeeds() {
		f.Add(seed[0], seed[1])
	}
	p := newRoutePair(f, Config{})
	f.Fuzz(func(t *testing.T, method, target string) { p.check(t, method, target) })
}

// TestRouteCorners pins what both routers answer on the corners the
// differential only holds equal.
func TestRouteCorners(t *testing.T) {
	p := newRoutePair(t, Config{})
	for _, c := range []struct {
		method, target string
		status         int
		want           string // Location, Allow, or what the body holds
	}{
		{"GET", "/v1/instances/", 404, "no route /v1/instances/"},
		{"GET", "/v1/instances/x/", 404, "no route /v1/instances/x/"},
		{"GET", "/healthz/", 404, "no route /healthz/"},
		{"POST", "/v1/instances//query", 301, "/v1/instances/query"},
		{"GET", "/v1//instances/x", 301, "/v1/instances/x"},
		{"GET", "/./?a=1", 301, "/?a=1"},
		{"POST", "/..?a=1", 301, "/?a=1"},
		{"GET", "/v1/instances/a%2Fb", 200, `|get|"a/b"`},
		{"POST", "/v1/instances/a%2Fb/query", 200, `|query|"a/b"`},
		{"GET", "/v1/instances/%78", 200, `|get|"x"`},
		{"HEAD", "/v1/metrics", 200, `|metrics|""`},
		{"POST", "/v1/metrics", 405, "GET"},
		{"OPTIONS", "/v1/instances/x", 405, "GET, PUT, DELETE"},
		{"CONNECT", "/v1//admin/quotas", 405, "GET, PUT"},
		{"CONNECT", "example.com:443", 301, "/"},
	} {
		rec := p.check(t, c.method, c.target)
		got := rec.Body.String()
		switch c.status {
		case 301:
			got = rec.Header().Get("Location")
		case 405:
			got = rec.Header().Get("Allow")
		}
		if rec.Code != c.status || !strings.Contains(got, c.want) {
			t.Errorf("%s %s = %d %q, want %d %q", c.method, c.target, rec.Code, got, c.status, c.want)
		}
	}
}

// TestRouteEscapedNameIsTheTenant: the unescaped {name} is the tenant
// admission charges (DESIGN §21), under the router as under the mux.
func TestRouteEscapedNameIsTheTenant(t *testing.T) {
	p := newRoutePair(t, Config{TenantQuotas: map[string]admission.Quota{"a/b": {Rate: 1e-9, Burst: 1}}})
	for _, h := range []http.Handler{p.got, p.want} {
		for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
			r, _ := wireRequest("POST", "/v1/instances/a%2Fb/query")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != want || i == 1 && !strings.Contains(rec.Body.String(), `tenant \"a/b\"`) {
				t.Errorf("request %d: %d %s, want %d", i, rec.Code, rec.Body, want)
			}
		}
	}
}
