package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/fixtures"
)

// TestCachedHitAllocs: what a cached point query allocates between
// ServeHTTP and the response bytes: nothing. The router matches without
// allocating (BenchmarkRoute), the result cache finds the statement by the
// bytes of the pooled body, and a hit arms no request deadline; anything
// above zero is something new. The race detector changes what escapes, so
// the test does not run under it.
func TestCachedHitAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts under -race are not the program's")
	}
	rp := newReplay(t, harnessConfig(), 4)
	for i := 0; i < 3; i++ { // the miss, then enough hits to settle the pool
		if st := rp.serve(); st != http.StatusOK {
			t.Fatalf("warm-up status %d", st)
		}
	}
	const ceiling, byteCeiling, runs = 0, 0, 200
	if n := testing.AllocsPerRun(runs, func() { rp.serve() }); n > ceiling {
		t.Fatalf("a cached hit allocates %v times, ceiling %d", n, ceiling)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rp.serve()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > byteCeiling {
		t.Fatalf("a cached hit allocates %d bytes, ceiling %d", b, byteCeiling)
	}
}

// TestQueryMissAllocs: what infer_dag's PROB OBJECT on a leaf allocates
// through Handler() when nothing is cached: 10 since the result cache keys
// a statement by namespace and bytes instead of a concatenated string (11
// before). It was ≈ 31 while every miss armed a context.WithTimeout and
// the request deadline's timer; the BN lane itself allocates nothing (bayes
// TestInferAllocations). The race detector changes what escapes, so the
// test does not run under it.
func TestQueryMissAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts under -race are not the program's")
	}
	rp := newDAGReplay(t, "PROB OBJECT leaf2")
	for i := 0; i < 3; i++ {
		if st := rp.serve(); st != http.StatusOK {
			t.Fatalf("warm-up status %d", st)
		}
	}
	const ceiling = 20
	if n := testing.AllocsPerRun(200, func() { rp.serve() }); n > ceiling {
		t.Fatalf("a DAG miss allocates %v times, ceiling %d", n, ceiling)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// slowStatement samples until something stops it.
const slowStatement = "ESTIMATE 2000000000 EXISTS R.book"

// serveQuery runs one query for instance "fig" through the query handler
// under instrument, as the query route serves it, and returns the recorder
// and the request deadline the handler armed (nil if it armed none).
func serveQuery(t *testing.T, s *Server, stmt string) (*httptest.ResponseRecorder, *deadlineCtx) {
	t.Helper()
	var seen *deadlineCtx
	h := s.instrument(withRequestContext(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		w.(*reqState).name = "fig" // what the router hands a matched route
		s.handleQuery(ctx, w, r)
		seen = w.(*reqState).deadline
	}))
	req := httptest.NewRequest(http.MethodPost, "/v1/instances/fig/query", strings.NewReader(stmt))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, seen
}

func TestLazyDeadline(t *testing.T) {
	newServer := func(t *testing.T, cfg Config) *Server {
		s := MustNew(cfg)
		t.Cleanup(func() { s.Close() })
		if err := s.Put("fig", fixtures.Figure2()); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("no request arms a timer", func(t *testing.T) {
		// The governor owns the query deadline and reads the request's
		// through Err once per quantum, so a miss never asks for the Done
		// channel that would arm the timer; a hit has no deadline at all.
		s := newServer(t, Config{RequestTimeout: 30 * time.Second, QueryDeadline: 10 * time.Second})
		rec, c := serveQuery(t, s, "PROB EXISTS R.book")
		if rec.Code != http.StatusOK {
			t.Fatalf("miss: %d %s", rec.Code, rec.Body)
		}
		if c == nil {
			t.Fatal("the miss was evaluated without the request deadline")
		}
		if d, _ := c.Deadline(); d.IsZero() || time.Until(d) > 30*time.Second || time.Until(d) < 29*time.Second {
			t.Errorf("the miss's deadline is %v, want the request's arrival plus 30s", d)
		}
		if c.done != nil || c.timer != nil || c.stopParent != nil || c.after != nil {
			t.Errorf("the miss armed its deadline's timer: %+v", c)
		}
		if !errors.Is(c.Err(), context.Canceled) {
			t.Errorf("the miss's deadline was not settled when the handler returned: %v", c.Err())
		}
		if rec, c := serveQuery(t, s, "PROB EXISTS R.book"); rec.Code != http.StatusOK || c != nil {
			t.Errorf("hit: %d %s, deadline %+v; want 200 and none", rec.Code, rec.Body, c)
		}
	})

	t.Run("a miss that outlives the timeout is a 503 and a trip", func(t *testing.T) {
		s := newServer(t, Config{RequestTimeout: 30 * time.Millisecond, BreakerThreshold: 1, BreakerCooldown: time.Hour})
		start := time.Now()
		rec, _ := serveQuery(t, s, slowStatement)
		if e := apiv1.ErrorFromBody(rec.Code, rec.Body.Bytes()); rec.Code != http.StatusServiceUnavailable || e.Code != apiv1.CodeTimeout {
			t.Fatalf("slow miss: %d %s, want 503 timeout", rec.Code, rec.Body)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("the deadline took %v to stop the evaluation", d)
		}
		if got := s.qCancel.Value(); got != 1 {
			t.Errorf("query_cancelled = %d, want 1", got)
		}
		rec, _ = serveQuery(t, s, slowStatement)
		if e := apiv1.ErrorFromBody(rec.Code, rec.Body.Bytes()); e.Code != apiv1.CodeBreakerOpen {
			t.Fatalf("after the trip: %d %s, want breaker_open", rec.Code, rec.Body)
		}
	})

	t.Run("a client that goes away cancels the evaluation", func(t *testing.T) {
		s := newServer(t, Config{RequestTimeout: time.Minute, BreakerThreshold: 1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/instances/fig/query", strings.NewReader(slowStatement))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("the slow statement answered %d before the client gave up", resp.StatusCode)
		}
		waitFor(t, 5*time.Second, "the abandoned evaluation to stop", func() bool { return s.qCancel.Value() == 1 })
		// A client's departure is not the statement's fault: no trip.
		if st := s.breaker.StateOf("fig.estimate"); st.String() != "closed" {
			t.Errorf("breaker %v after a client went away, want closed", st)
		}
	})

	t.Run("no goroutine per request", func(t *testing.T) {
		hit := newReplay(t, harnessConfig(), 2)
		cfg := harnessConfig()
		cfg.ResultCacheBytes = 1
		miss := newReplay(t, cfg, 2)
		hit.serve()
		miss.serve()
		before := runtime.NumGoroutine()
		for i := 0; i < 5000; i++ {
			if hit.serve() != http.StatusOK || miss.serve() != http.StatusOK {
				t.Fatal("request failed")
			}
		}
		waitFor(t, 2*time.Second, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= before })
	})
}

// TestDeadlineContext holds deadlineCtx to the context.Context contract
// where the lazy parts could break it.
func TestDeadlineContext(t *testing.T) {
	t.Run("expiry seen by Err closes a later Done", func(t *testing.T) {
		c := newDeadlineCtx(context.Background(), time.Now().Add(time.Nanosecond))
		time.Sleep(time.Millisecond)
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err = %v", err)
		}
		select {
		case <-c.Done():
		default:
			t.Fatal("Err is non-nil and Done is open")
		}
	})
	t.Run("the timer fires for a waiter", func(t *testing.T) {
		c := newDeadlineCtx(context.Background(), time.Now().Add(10*time.Millisecond))
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed")
		}
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err = %v", err)
		}
	})
	t.Run("the parent's cancellation and deadline come through", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		c := newDeadlineCtx(parent, time.Now().Add(time.Hour))
		done := c.Done()
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("parent cancelled, Done never closed")
		}
		if !errors.Is(c.Err(), context.Canceled) {
			t.Fatalf("Err = %v", c.Err())
		}
		// Without a waiter, Err still asks the parent.
		parent, cancel = context.WithCancel(context.Background())
		c = newDeadlineCtx(parent, time.Now().Add(time.Hour))
		cancel()
		if !errors.Is(c.Err(), context.Canceled) {
			t.Fatalf("Err = %v with a cancelled parent", c.Err())
		}
		early, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		want, _ := early.Deadline()
		if got, _ := newDeadlineCtx(early, time.Now().Add(time.Hour)).Deadline(); !got.Equal(want) {
			t.Errorf("Deadline = %v, parent's is %v", got, want)
		}
	})
	t.Run("children register instead of parking a goroutine", func(t *testing.T) {
		c := newDeadlineCtx(context.Background(), time.Now().Add(time.Hour))
		before := runtime.NumGoroutine()
		child, cancelChild := context.WithTimeout(c, time.Hour)
		kept, cancelKept := context.WithCancel(c)
		defer cancelKept()
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("deriving two contexts started %d goroutines", n-before)
		}
		if len(c.after) != 2 {
			t.Fatalf("%d registrations, want 2", len(c.after))
		}
		cancelChild()
		if len(c.after) != 1 {
			t.Errorf("%d registrations after a child was cancelled, want 1", len(c.after))
		}
		c.cancel(context.Canceled)
		select {
		case <-kept.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("cancel did not reach the child")
		}
		if !errors.Is(child.Err(), context.Canceled) || !errors.Is(kept.Err(), context.Canceled) {
			t.Errorf("children: %v, %v", child.Err(), kept.Err())
		}
		// A context derived after the fact is born cancelled.
		late, cancelLate := context.WithCancel(c)
		defer cancelLate()
		if late.Err() == nil {
			t.Error("a child of a cancelled context is live")
		}
	})
}

// TestReadBodyLimit: the pooled reader refuses at the byte MaxBytesReader does.
func TestReadBodyLimit(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 4097, 10000} {
		body := bytes.Repeat([]byte("x"), n)
		var st reqState
		got, err := st.readBody(iotestOneByte{bytes.NewReader(body)}, 4096)
		_, wantErr := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 4096))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%d bytes: readBody error %v, MaxBytesReader error %v", n, err, wantErr)
		}
		var mbe *http.MaxBytesError
		if err != nil && (!errors.As(err, &mbe) || err.Error() != wantErr.Error()) {
			t.Fatalf("%d bytes: readBody error %v, want %v", n, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, body) {
			t.Fatalf("%d bytes: read %d back", n, len(got))
		}
		if st.body.Len() > 4097 {
			t.Fatalf("%d bytes: %d buffered past the limit", n, st.body.Len())
		}
	}
}

// iotestOneByte reads at most three bytes at a time, so the buffer grows
// mid-body.
type iotestOneByte struct{ r io.Reader }

func (o iotestOneByte) Read(p []byte) (int, error) {
	if len(p) > 3 {
		p = p[:3]
	}
	return o.r.Read(p)
}

// encodeRef is what the query route wrote before it had its own encoder.
func encodeRef(text string, prob *float64, stored string) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(apiv1.QueryResponse{Text: text, Prob: prob, Stored: stored})
	return buf.Bytes()
}

func checkEncoding(t *testing.T, text string, prob *float64, stored string) {
	t.Helper()
	want := encodeRef(text, prob, stored)
	got := apiv1.AppendQueryResponse([]byte("kept"), text, prob, stored)
	if !bytes.HasPrefix(got, []byte("kept")) || !bytes.Equal(got[4:], want) {
		t.Errorf("AppendQueryResponse(%q, %v, %q)\n got %q\nwant %q", text, prob, stored, got[4:], want)
	}
}

var encodeTexts = []string{
	"", "P(A1 ∈ R.book.author) = 0.560000000", "a\"b\\c/d", "<script>&amp;</script>",
	"line\nbreak\ttab\rcr\bbs\fff\x00nul\x1fus\x7fdel", "\u2028 and \u2029", "\xff\xfe invalid \xc3", "\xe2\x80",
	"café \U0001f600 \ufffd", "E[count(R.a)] = 1.500000\nP(count=1) = 0.500000000",
}

var encodeProbs = []float64{
	0, 1, 0.56, 0.1 + 0.2, 1e-6, 9.999999e-7, 1e-7, 5e-324, 2.2250738585072014e-308, 1e20, 1e21, 1.5e300,
	-0.25, -1e-9, -1e21, math.MaxFloat64, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendQueryResponse(t *testing.T) {
	for _, text := range encodeTexts {
		checkEncoding(t, text, nil, "")
		checkEncoding(t, text, nil, text)
		for i := range encodeProbs {
			checkEncoding(t, text, &encodeProbs[i], "kept")
		}
	}
}

// FuzzAppendQueryResponse: the hand-made bytes equal encoding/json's, for
// any text, any float64 bit pattern and any stored name.
func FuzzAppendQueryResponse(f *testing.F) {
	for i, text := range encodeTexts {
		f.Add(text, math.Float64bits(encodeProbs[i%len(encodeProbs)]), i%2 == 0, "view")
	}
	for _, p := range encodeProbs {
		f.Add("P = x", math.Float64bits(p), true, "")
	}
	f.Fuzz(func(t *testing.T, text string, bits uint64, hasProb bool, stored string) {
		var prob *float64
		if hasProb {
			p := math.Float64frombits(bits)
			prob = &p
		}
		checkEncoding(t, text, prob, stored)
	})
}
