package server

// The route table, the middleware each class of route runs under, and
// the two probes.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"path"
	"runtime/debug"
	"strings"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/metrics"
	"pxml/internal/repl"
)

// routeClass names the middleware stack a route runs under. Nothing
// Config sets changes after New, so Handler assembles each route's stack
// once instead of deciding per request.
type routeClass int

const (
	// classProbe is bare: /healthz and /readyz keep answering while the
	// API is saturated or shedding.
	classProbe routeClass = iota
	// classRepl is token-gated and timed, but outside admission, the
	// in-flight limiter and the request deadline: a follower long-polling
	// the tail must not burn a serving slot or be cut off mid-poll.
	classRepl
	// classAdmin is token-gated and runs under the limiter and the
	// deadline, but bypasses admission: operators must be able to inspect
	// and loosen quotas while the server is shedding.
	classAdmin
	// classInstance is the catalog and query surface. Admission sits in
	// front of the global limiter: a tenant over its quota is rejected
	// before it can occupy one of the shared slots.
	classInstance
	// classQuery is the single-statement query route: classInstance's
	// stack without the request deadline, which its handler arms itself on
	// a result-cache miss. A cached answer needs no context.
	classQuery
)

// handler is what a route serves a request with. ctx is the request's
// context: under withDeadline it carries the request deadline, which
// r.Context() does not, because the request is not copied to carry it. A
// handler is handed the deadline as its first argument instead of having
// to know where to look for it; only handleQuery, outside withDeadline,
// arms it itself (reqState.arm), and only when it evaluates.
type handler func(ctx context.Context, w http.ResponseWriter, r *http.Request)

// route is one entry of the route table.
type route struct {
	pattern  string // method and path; {name} stands for one segment
	class    routeClass
	endpoint string // names the http_latency.<endpoint> timer; probes have none
	handle   handler
}

// routes is the whole HTTP surface: the v1 API and the two probes.
func (s *Server) routes() []route {
	const v1 = apiv1.Prefix
	return []route{
		{"GET /healthz", classProbe, "", s.handleHealthz},
		{"GET /readyz", classProbe, "", s.handleReadyz},
		{"GET " + repl.StreamPath, classRepl, "repl_stream", s.handleReplStream},
		{"GET " + repl.BootstrapPath, classRepl, "repl_bootstrap", s.handleReplBootstrap},
		{"GET " + repl.EpochPath, classRepl, "repl_epoch", s.handleReplEpoch},
		{"POST " + v1 + "/admin/backup", classAdmin, "backup", s.handleBackup},
		{"POST " + v1 + "/admin/scrub", classAdmin, "scrub", s.handleScrub},
		{"POST " + v1 + "/admin/promote", classAdmin, "promote", s.handlePromote},
		{"POST " + v1 + "/admin/demote", classAdmin, "demote", s.handleDemote},
		{"GET " + v1 + "/admin/quotas", classAdmin, "quotas", s.handleQuotasGet},
		{"PUT " + v1 + "/admin/quotas", classAdmin, "quotas", s.handleQuotasPut},
		{"GET " + v1 + "/instances", classInstance, "list", s.handleList},
		{"PUT " + v1 + "/instances/{name}", classInstance, "put", s.handlePut},
		{"GET " + v1 + "/instances/{name}", classInstance, "get", s.handleGet},
		{"DELETE " + v1 + "/instances/{name}", classInstance, "delete", s.handleDelete},
		{"GET " + v1 + "/instances/{name}/dot", classInstance, "dot", s.handleDot},
		{"POST " + v1 + "/instances/{name}/query", classQuery, "query", s.handleQuery},
		{"POST " + v1 + "/instances/{name}/batch", classInstance, "batch", s.handleBatch},
		{"GET " + v1 + "/metrics", classInstance, "metrics", s.handleMetrics},
	}
}

// stack wraps a route's handler in the middleware its class calls for.
// The percentile timer is claimed innermost, so it observes the requests
// the handler served; instrument observes it, with the request's whole
// latency.
func (s *Server) stack(rt route) http.Handler {
	if rt.class == classProbe {
		return withRequestContext(rt.handle)
	}
	t := s.reg.Timer("http_latency." + rt.endpoint)
	timed := func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		w.(*reqState).timers[0] = t
		rt.handle(ctx, w, r)
	}
	switch rt.class {
	case classRepl:
		return s.requireToken(withRequestContext(timed))
	case classAdmin:
		return s.requireToken(s.limitInflight(s.withDeadline(timed)))
	case classQuery:
		return s.admit(s.limitInflight(withRequestContext(timed)))
	default:
		return s.admit(s.limitInflight(s.withDeadline(timed)))
	}
}

// withRequestContext serves h with the request's own context, as the
// routes outside the request deadline are served.
func withRequestContext(h handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h(r.Context(), w, r) })
}

// Handler returns the HTTP handler for the catalog: the route table's
// router, each route under its class's stack, and the whole under request
// metrics, optional structured logging and panic recovery.
func (s *Server) Handler() http.Handler {
	return s.instrument(s.recoverPanics(s.newRouter(s.routes())))
}

// router maps each route's pattern to the route under its stack, and a GET
// route's pattern with HEAD for GET to the same. A request's pattern is its
// method and its path with the name segment, if it has one, replaced by
// {name}. What it misses it answers as net/http's mux does (held to that by
// FuzzRouteDifferential): a non-canonical path is a 301 to its cleaned form
// (query kept), a routed path asked with another method a 405 with Allow,
// and anything else the 404 envelope.
type router map[string]http.Handler

// newRouter builds the router of table.
func (s *Server) newRouter(table []route) router {
	rt := router{}
	for _, r := range table {
		rt[r.pattern] = s.stack(r)
		if path, ok := strings.CutPrefix(r.pattern, http.MethodGet+" "); ok {
			rt[http.MethodHead+" "+path] = rt[r.pattern]
		}
	}
	return rt
}

func (rt router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	// A path with no escapes is matched as it stands; one with escapes on
	// the segments of its escaped form, each unescaped.
	path, escaped := r.URL.Path, r.URL.RawPath != ""
	if escaped {
		path = r.URL.EscapedPath()
	}
	switch {
	case r.Method == http.MethodConnect && !strings.Contains(path, "/"):
		redirect(w, r, cleanPath(r.URL.Path)+"/")
		return
	case r.Method == http.MethodConnect:
		path = cleanPath(path) // never served, but answered with the cleaned path's Allow
	// Only a path with an empty, . or .. segment, or none at all, pays for
	// cleanPath.
	case (!strings.HasPrefix(path, "/") || strings.Contains(path, "//") || strings.Contains(path, "/.")) && cleanPath(path) != path:
		redirect(w, r, cleanPath(r.URL.EscapedPath()))
		return
	}
	var buf [64]byte
	pattern, name := appendPattern(append(append(buf[:0], r.Method...), ' '), path, escaped)
	if h := rt[string(pattern)]; h != nil {
		w.(*reqState).name = name
		h.ServeHTTP(w, r)
		return
	}
	var allow []string
	for _, m := range []string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodDelete} {
		if rt[m+string(pattern[len(r.Method):])] != nil {
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
}

// instancePrefix is every named route's path up to its name segment.
const instancePrefix = apiv1.Prefix + "/instances/"

// appendPattern appends the clean path as the table writes it, with a
// non-empty segment after instancePrefix replaced by {name}, and returns
// that name. A path without escapes takes one cut. An escaped one is read
// segment by segment, each unescaped, except that a segment other than the
// name which would unescape to hold a slash stays escaped: no route
// matches it.
func appendPattern(dst []byte, path string, escaped bool) (_ []byte, name string) {
	if rest, named := strings.CutPrefix(path, instancePrefix); !escaped {
		if name, _, _ = strings.Cut(rest, "/"); !named || name == "" {
			return append(dst, path...), ""
		}
		return append(append(dst, instancePrefix+"{name}"...), rest[len(name):]...), name
	}
	start := len(dst)
	for rest, more := path[1:], true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		atName := string(dst[start:]) == instancePrefix[:len(instancePrefix)-1]
		if u, err := url.PathUnescape(seg); err == nil && (atName || !strings.Contains(u, "/")) {
			seg = u
		}
		if atName && seg != "" && seg != "/" {
			name, seg = seg, "{name}"
		}
		dst = append(append(dst, '/'), seg...)
	}
	return dst, name
}

// cleanPath roots p and removes its empty, . and .. segments, keeping a
// trailing slash.
func cleanPath(p string) string {
	np := path.Clean("/" + p)
	if strings.HasSuffix(p, "/") && np != "/" {
		np += "/"
	}
	return np
}

// redirect answers a permanent redirect to path, keeping the query.
func redirect(w http.ResponseWriter, r *http.Request, path string) {
	u := url.URL{Path: path, RawQuery: r.URL.RawQuery}
	http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
}

// admit runs the per-tenant admission tier: token-bucket quotas first,
// weighted fair sharing of the inflight capacity under overload second.
// The tenant is the instance name ("" for the catalog listing and
// metrics). Shed requests answer 429 with the structured envelope and a
// Retry-After hint and never reach the shared limiter.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := w.(*reqState).name
		d := s.adm.AdmitAt(tenant, w.(*reqState).start)
		if !d.OK {
			s.shed.Inc()
			code := apiv1.CodeQuotaExceeded
			msg := fmt.Sprintf("tenant %q over its request quota, retry later", tenant)
			if d.Reason == "overload" {
				code = apiv1.CodeOverloaded
				msg = fmt.Sprintf("server overloaded and tenant %q is over its fair share, retry later", tenant)
			}
			apiv1.WriteErrorRetry(w, http.StatusTooManyRequests, code, msg, d.RetryAfter)
			return
		}
		defer s.adm.Release(tenant)
		next.ServeHTTP(w, r)
	})
}

// recoverPanics converts a handler panic into a 500 (when the response
// has not started) plus a counter and a log line, so one bad request
// cannot take down the daemon. http.ErrAbortHandler keeps its meaning.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Inc()
			if s.log != nil {
				s.log.Error("handler panic",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			}
			if st, ok := w.(*reqState); !ok || !st.wrote {
				httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitInflight sheds requests beyond the Config.MaxInflight cap with 429 +
// Retry-After instead of queueing without bound: under overload it is
// better to fail a few requests fast than to slow every request down.
func (s *Server) limitInflight(next http.Handler) http.Handler {
	if s.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next.ServeHTTP(w, r)
		default:
			s.shed.Inc()
			apiv1.WriteErrorRetry(w, http.StatusTooManyRequests, apiv1.CodeOverloaded,
				fmt.Sprintf("server overloaded (%d requests in flight), retry later", cap(s.sem)), time.Second)
		}
	})
}

// withDeadline bounds the request with Config.RequestTimeout, counted from
// its arrival, through the context it hands next: every engine call honors
// it, and an expired deadline surfaces as 503 through classifyQueryError.
// The context arms nothing unless something waits on it (see deadlineCtx),
// the request is not copied to carry it, and instrument settles it.
func (s *Server) withDeadline(next handler) http.Handler {
	if s.reqTimeout <= 0 {
		return withRequestContext(next)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next(w.(*reqState).arm(r.Context(), s.reqTimeout), w, r)
	})
}

func (s *Server) handleHealthz(_ context.Context, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleReadyz reports whether this server should receive traffic: not
// while draining for shutdown, and not ready for writes once the store
// has degraded (readiness is the operator's signal to fail over).
func (s *Server) handleReadyz(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if h := s.store.Health(); h.Degraded {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded",
			"reason": h.Reason,
		})
		return
	}
	if fenced, epoch, leader := s.store.Fenced(); fenced {
		// A fenced ex-leader still serves reads, but readiness is the
		// routing signal and writes belong on the successor.
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "fenced",
			"epoch":  epoch,
			"leader": leader,
		})
		return
	}
	if f := s.follower.Load(); f != nil {
		st := f.puller.Status()
		if st.Diverged {
			// Sticky: a diverged replica must never serve spliced history;
			// an operator re-bootstraps it.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "diverged",
				"reason": st.LastErr,
			})
			return
		}
		if !f.puller.Ready(f.maxStaleness) {
			stale := st.Staleness(time.Now()).Seconds()
			if stale > (365 * 24 * time.Hour).Seconds() {
				stale = -1 // never synced
			}
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":      "replica_stale",
				"staleness_s": stale,
				"lag_bytes":   st.LagBytes,
				"max_s":       f.maxStaleness.Seconds(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// instrument wraps the router with request counting, latency observation and
// optional structured logging, and lends the request its pooled state: the
// ResponseWriter everything beneath sees is a *reqState, taken here and
// returned here (a handler that panics past recoverPanics keeps it from the
// pool, which is only a missed reuse). Its two clock reads are the
// request's: the arrival it stamps on the state, and the end http_latency
// and the state's timers observe, with one bucket lookup between them. It
// settles the request deadline, if one was armed, once the handler has
// returned.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := statePool.Get().(*reqState)
		rec.ResponseWriter, rec.status, rec.bytes, rec.wrote = w, http.StatusOK, 0, false
		rec.start = time.Now()
		s.inflight.Inc()
		defer s.inflight.Dec()
		next.ServeHTTP(rec, r)
		if rec.deadline != nil {
			rec.deadline.cancel(context.Canceled)
		}
		d := time.Since(rec.start)
		s.requests.Inc()
		smp := metrics.SampleOf(d)
		s.latency.Record(smp)
		for _, t := range rec.timers {
			if t != nil {
				t.Record(smp)
			}
		}
		if rec.status >= 400 {
			s.errors.Inc()
		}
		if s.log != nil {
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"bytes", rec.bytes,
				"duration_ms", float64(d)/float64(time.Millisecond),
				"remote", r.RemoteAddr,
			)
		}
		rec.release()
	})
}
