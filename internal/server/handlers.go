package server

// Handlers of the catalog and query surface (/v1/instances...), and the
// mapping of their failures onto the v1 error envelope.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/dot"
	"pxml/internal/engine"
	"pxml/internal/govern"
	"pxml/internal/metrics"
	"pxml/internal/repl"
	"pxml/internal/store"
)

type listEntry struct {
	Name    string `json:"name"`
	Root    string `json:"root"`
	Objects int    `json:"objects"`
	Edges   int    `json:"edges"`
	Depth   int    `json:"depth"`
	Tree    bool   `json:"tree"`
}

func (s *Server) handleList(_ context.Context, w http.ResponseWriter, r *http.Request) {
	// Names is sorted; a name deleted since it was listed is skipped.
	names := s.Names()
	entries := make([]listEntry, 0, len(names))
	for _, name := range names {
		eng, ok := s.Engine(name)
		if !ok {
			continue
		}
		pi := eng.Instance()
		st := pi.ComputeStats()
		entries = append(entries, listEntry{
			Name: name, Root: pi.Root(),
			Objects: st.Objects, Edges: st.Edges, Depth: st.Depth,
			Tree: eng.IsTree(),
		})
	}
	writeJSON(w, http.StatusOK, entries)
}

// httpWriteError maps a persistence-write failure onto the envelope:
// writes against a degraded (read-only) store are 503 — the condition is
// the server's, not the request's — a follower's read-only refusal is a
// 409 (the handler normally 307s writes away before this can happen),
// and anything else stays a 500.
func httpWriteError(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrDegraded) {
		apiv1.WriteErrorRetry(w, http.StatusServiceUnavailable, apiv1.CodeDegraded, err.Error(), time.Second)
		return
	}
	if errors.Is(err, store.ErrFollowerReadOnly) {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, err)
		return
	}
	if errors.Is(err, store.ErrEpochFenced) {
		// A fenced ex-leader without a known successor cannot redirect;
		// the hard backstop is this typed rejection — a superseded node
		// never acknowledges a write.
		httpError(w, http.StatusConflict, apiv1.CodeEpochFenced, err)
		return
	}
	httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
}

// queryFailure is the server's one verdict on a failed statement: the
// status, code and Retry-After (0 for none) it answers with, the counter it
// moves (nil for none), and whether it trips the statement shape's circuit
// breaker.
type queryFailure struct {
	status  int
	code    string
	retry   time.Duration
	counter *metrics.Counter
	trip    bool
}

// classifyQueryError maps a statement failure onto its verdict. Governor
// refusals keep their retry semantics on the wire: an intractable
// statement is a 422 (retrying the same statement cannot succeed), a
// runtime budget trip is a 503 with Retry-After (a cheaper variant may
// fit), a contained evaluation panic is a 500. An expired per-request
// deadline (or a caller that went away) is 503 so clients and load
// balancers treat it as server pressure, not statement error. All of these
// but the caller that went away (context.Canceled) trip the breaker: they
// are the server protecting itself from the statement, while a departed
// client is not the statement's fault and must not open the breaker for
// everyone else. A statement the breaker shed is a 503 with the breaker's
// Retry-After, counted in breaker_shed. Anything else is the statement's
// own error, a 422 that counts nowhere and trips nothing.
func (s *Server) classifyQueryError(err error) queryFailure {
	var open *breakerOpenError
	switch {
	case errors.As(err, &open):
		return queryFailure{http.StatusServiceUnavailable, apiv1.CodeBreakerOpen, open.retry, s.breakerShed, false}
	case errors.Is(err, govern.ErrIntractable):
		return queryFailure{http.StatusUnprocessableEntity, apiv1.CodeIntractable, 0, s.qIntract, true}
	case errors.Is(err, govern.ErrBudgetExceeded):
		return queryFailure{http.StatusServiceUnavailable, apiv1.CodeBudgetExceeded, time.Second, s.qBudget, true}
	case errors.Is(err, engine.ErrQueryPanic):
		return queryFailure{http.StatusInternalServerError, apiv1.CodeInternal, 0, s.qPanic, true}
	case errors.Is(err, context.DeadlineExceeded):
		return queryFailure{http.StatusServiceUnavailable, apiv1.CodeTimeout, time.Second, s.qCancel, true}
	case errors.Is(err, context.Canceled):
		return queryFailure{http.StatusServiceUnavailable, apiv1.CodeTimeout, time.Second, s.qCancel, false}
	}
	return queryFailure{http.StatusUnprocessableEntity, apiv1.CodeStatementFailed, 0, nil, false}
}

// countQueryError classifies a failed statement, moves its counter and
// returns the verdict. (The breaker hears of the statement from its
// engine's gate, served.Leave, once per evaluation.)
func (s *Server) countQueryError(err error) queryFailure {
	f := s.classifyQueryError(err)
	if f.counter != nil {
		f.counter.Inc()
	}
	return f
}

// breakerOpenError is a statement the circuit breaker shed under key:
// retry is how long the breaker asks the client to wait.
type breakerOpenError struct {
	key   string
	retry time.Duration
}

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("circuit breaker open for %q statements (repeated budget trips)", e.key)
}

// httpDecodeError maps a body-read/decode error onto the envelope:
// oversized bodies (cut off by MaxBytesReader) are 413, anything else 400.
func httpDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, apiv1.CodeBodyTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, err)
}

func (s *Server) handlePut(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if s.redirectToLeader(w, r) {
		return
	}
	name := w.(*reqState).name
	// Refuse before working: a name the store cannot hold is known from the
	// URL alone, ahead of reading, decoding and validating the body.
	if s.store.Durable() && !validName(name) {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("name %q not storable (use [A-Za-z0-9_-])", name))
		return
	}
	pi, err := s.decodePut(w, r)
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	if err := pi.ValidateLite(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, apiv1.CodeInvalidInstance, fmt.Errorf("instance invalid: %w", err))
		return
	}
	if err := s.Put(name, pi); err != nil {
		httpWriteError(w, err)
		return
	}
	s.stampEpoch(w)
	writeJSON(w, http.StatusCreated, map[string]any{"name": name, "objects": pi.NumObjects()})
}

// putBodyPool holds the buffers PUT bodies are read into.
var putBodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledPutBody is the largest buffer that goes back to putBodyPool: one
// enormous body must not stay resident behind the ordinary ones.
const maxPooledPutBody = 4 << 20

// decodePut reads r's body and decodes it, as JSON when the Content-Type
// says so and in the text encoding otherwise. It reads the whole body
// before decoding, so an oversized one always fails with the
// *http.MaxBytesError httpDecodeError answers 413 for, rather than with
// whatever parse error the truncation causes. The body is read into a
// pooled buffer, grown at once to a declared length (capped at the limit);
// the decoders keep nothing of the bytes, so the buffer goes back to the
// pool on return.
func (s *Server) decodePut(w http.ResponseWriter, r *http.Request) (*core.ProbInstance, error) {
	body := putBodyPool.Get().(*bytes.Buffer)
	defer func() {
		if body.Cap() <= maxPooledPutBody {
			body.Reset()
			putBodyPool.Put(body)
		}
	}()
	if r.ContentLength >= 0 {
		body.Grow(int(min(r.ContentLength, s.maxBody)) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		return nil, err
	}
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		return codec.DecodeJSON(body)
	}
	return codec.DecodeTextBytes(body.Bytes())
}

// stampEpoch marks a successful write acknowledgement with the leader
// epoch it was committed under, so clients (and the failover chaos
// harness) can prove no two epochs ever acknowledged writes
// concurrently.
func (s *Server) stampEpoch(w http.ResponseWriter) {
	if s.store.Durable() {
		w.Header().Set(repl.HeaderEpoch, strconv.FormatUint(s.store.Epoch(), 10))
	}
}

func (s *Server) handleGet(_ context.Context, w http.ResponseWriter, r *http.Request) {
	pi, ok := s.Get(w.(*reqState).name)
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", w.(*reqState).name))
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "json") {
		w.Header().Set("Content-Type", "application/json")
		if err := codec.EncodeJSON(w, pi); err != nil {
			httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := codec.EncodeText(w, pi); err != nil {
		httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
	}
}

func (s *Server) handleDelete(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if s.redirectToLeader(w, r) {
		return
	}
	ok, err := s.Delete(w.(*reqState).name)
	if err != nil {
		httpWriteError(w, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", w.(*reqState).name))
		return
	}
	s.stampEpoch(w)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDot(_ context.Context, w http.ResponseWriter, r *http.Request) {
	pi, ok := s.Get(w.(*reqState).name)
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", w.(*reqState).name))
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	io.WriteString(w, dot.Weak(pi))
}

// jsonContentType is the Content-Type value of every JSON response, shared
// between responses: a header map holds the slice and nothing writes
// through it.
var jsonContentType = []string{"application/json"}

func (s *Server) handleQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	storeAs := ""
	if r.URL.RawQuery != "" {
		storeAs = r.URL.Query().Get("store")
	}
	if storeAs != "" {
		// A query that stores its result writes; on a follower it belongs
		// on the leader. Plain queries serve locally — that is the point
		// of a read replica.
		if s.redirectToLeader(w, r) {
			return
		}
		// Refuse before working, as handlePut does: a name the store
		// cannot hold is known from the URL alone.
		if s.store.Durable() && !validName(storeAs) {
			httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("name %q not storable (use [A-Za-z0-9_-])", storeAs))
			return
		}
	}
	st := w.(*reqState) // instrument hands every handler one
	sv, ok := s.served(st.name)
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", st.name))
		return
	}
	body, err := st.readBody(r.Body, maxStatementBytes)
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	// A statement the cache holds is answered from it: no deadline, no
	// breaker, no clock read beyond instrument's, which also times the
	// engine's latency and pxql_latency.<shape> for it. Any other arms the
	// request deadline and is evaluated behind the breaker (served.Enter).
	a, err := sv.eng.Answer(body, func() context.Context { return st.arm(ctx, s.reqTimeout) })
	if err != nil {
		f := s.countQueryError(err)
		if f.retry > 0 {
			apiv1.WriteErrorRetry(w, f.status, f.code, err.Error(), f.retry)
		} else {
			apiv1.WriteError(w, f.status, f.code, err.Error())
		}
		return
	}
	if a.Cached {
		st.timers[1], st.timers[2] = sv.eng.Latency(), s.shapeLatency.of(a.Shape)
	}
	res, resp := a.Result, a.Body
	if storeAs != "" {
		if res.Instance == nil {
			httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("statement produced no instance to store"))
			return
		}
		if err := s.Put(storeAs, res.Instance); err != nil {
			httpWriteError(w, err)
			return
		}
	}
	if resp == nil || storeAs != "" {
		// Not kept by the cache, or to name what was stored: rendered
		// here, into the request's own buffer.
		st.out = apiv1.AppendQueryResponse(st.out[:0], res.Text, res.Prob, storeAs)
		resp = st.out
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp) // a client that went away is not the handler's to report
}

type batchEntry struct {
	Statement string   `json:"statement"`
	Text      string   `json:"text,omitempty"`
	Prob      *float64 `json:"prob,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// handleBatch evaluates many statements (one per non-blank line) against
// one instance, fanning them out over the engine's bounded worker pool.
// Per-statement failures are reported inline so one bad statement doesn't
// void the rest.
func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	sv, ok := s.served(w.(*reqState).name)
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", w.(*reqState).name))
		return
	}
	body, err := w.(*reqState).readBody(r.Body, maxStatementBytes)
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	var stmts []string
	for _, line := range strings.Split(string(body), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			stmts = append(stmts, line)
		}
	}
	if len(stmts) == 0 {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("empty batch"))
		return
	}
	// The breaker applies per statement, through the engine's gate: a shed
	// statement reports breaker_open inline and is not evaluated.
	out := make([]batchEntry, len(stmts))
	for i, br := range sv.eng.RunBatch(ctx, stmts) {
		out[i].Statement = stmts[i]
		if br.Err != nil {
			out[i].Error = br.Err.Error()
			if f := s.countQueryError(br.Err); f.code == apiv1.CodeBreakerOpen {
				out[i].Error = f.code + ": " + out[i].Error
			}
			continue
		}
		out[i].Text = br.Result.Text
		out[i].Prob = br.Result.Prob
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes the shared v1 error envelope (see apiv1).
func httpError(w http.ResponseWriter, status int, code string, err error) {
	apiv1.WriteError(w, status, code, err.Error())
}
