package server

// The route table, the middleware each class of route runs under, and
// the two probes.

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"pxml/internal/apiv1"
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
)

// handler is what a route serves a request with. ctx is the request's
// context: under withDeadline it carries the request deadline, which
// r.Context() does not, because the request is not copied to carry it. A
// handler is handed the deadline as its first argument instead of having
// to know where to look for it.
type handler func(ctx context.Context, w http.ResponseWriter, r *http.Request)

// route is one entry of the route table.
type route struct {
	pattern  string // ServeMux pattern: method and full path
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
		{"POST " + v1 + "/instances/{name}/query", classInstance, "query", s.handleQuery},
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
		w.(*reqState).route = t
		rt.handle(ctx, w, r)
	}
	switch rt.class {
	case classRepl:
		return s.requireToken(withRequestContext(timed))
	case classAdmin:
		return s.requireToken(s.limitInflight(s.withDeadline(timed)))
	default:
		return s.admit(s.limitInflight(s.withDeadline(timed)))
	}
}

// withRequestContext serves h with the request's own context, as the
// routes outside the request deadline are served.
func withRequestContext(h handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h(r.Context(), w, r) })
}

// Handler returns the HTTP handler for the catalog: every route of the
// table on one mux, each under its class's stack, and the whole under
// request metrics, optional structured logging and panic recovery.
// Anything no route claims, unversioned paths included, answers the 404
// envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.pattern, s.stack(rt))
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

// admit runs the per-tenant admission tier: token-bucket quotas first,
// weighted fair sharing of the inflight capacity under overload second.
// The tenant is the instance name ("" for the catalog listing and
// metrics). Shed requests answer 429 with the structured envelope and a
// Retry-After hint and never reach the shared limiter.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("name")
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
// and the request is not copied to carry it.
func (s *Server) withDeadline(next handler) http.Handler {
	if s.reqTimeout <= 0 {
		return withRequestContext(next)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := newDeadlineCtx(r.Context(), w.(*reqState).start.Add(s.reqTimeout))
		defer ctx.cancel(context.Canceled)
		next(ctx, w, r)
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
	if s.store != nil {
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

// instrument wraps the mux with request counting, latency observation and
// optional structured logging, and lends the request its pooled state: the
// ResponseWriter everything beneath sees is a *reqState, taken here and
// returned here (a handler that panics past recoverPanics keeps it from the
// pool, which is only a missed reuse). Its two clock reads are the
// request's: the arrival it stamps on the state, and the end both
// http_latency and the route's timer observe.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := statePool.Get().(*reqState)
		rec.ResponseWriter, rec.status, rec.bytes, rec.wrote = w, http.StatusOK, 0, false
		rec.start = time.Now()
		s.inflight.Inc()
		defer s.inflight.Dec()
		next.ServeHTTP(rec, r)
		d := time.Since(rec.start)
		s.requests.Inc()
		s.latency.Observe(d)
		if rec.route != nil {
			rec.route.Observe(d)
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
