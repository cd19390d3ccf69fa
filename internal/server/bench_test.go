package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/pathexpr"
)

// putBody is the text-codec body of a generated FR tree of the given depth
// at branch 4: depth 4 is ingest_mix's 341-object instance, depth 6 the
// 5 461-object tree point_hot serves.
func putBody(tb testing.TB, depth int) []byte {
	tb.Helper()
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeText(&buf, in.PI); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var (
	benchProfile govern.Profile
	benchIndex   *pathexpr.Index
	benchRecord  []byte
)

// BenchmarkPutPipeline times what one served PUT and the first query after
// it ask of the library, stage by stage and end to end, on one instance per
// iteration (every timed stage starts from a fresh decode, so nothing a
// previous iteration memoized is measured as free): the text decode,
// ValidateLite, the binary record the store appends, and the governor
// profile plus path index the engine builds on first use. No store, no
// fsync, no HTTP: those are the end-to-end harness's (e2ebench).
func BenchmarkPutPipeline(b *testing.B) {
	decode := func(b *testing.B, body []byte) *core.ProbInstance {
		pi, err := codec.DecodeText(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		return pi
	}
	validate := func(b *testing.B, pi *core.ProbInstance) {
		if err := pi.ValidateLite(); err != nil {
			b.Fatal(err)
		}
	}
	profileIndex := func(pi *core.ProbInstance) {
		benchProfile = govern.Measure(pi)
		benchIndex = pathexpr.NewIndex(pi.WeakInstance.Graph())
	}
	// untimed runs fn outside the clock and the allocation count.
	untimed := func(b *testing.B, fn func()) {
		b.StopTimer()
		fn()
		b.StartTimer()
	}
	for _, depth := range []int{4, 6} {
		body := putBody(b, depth)
		n := decode(b, body).NumObjects()
		stages := []struct {
			name string
			run  func(b *testing.B)
		}{
			{"decode", func(b *testing.B) { decode(b, body) }},
			{"validate", func(b *testing.B) {
				var pi *core.ProbInstance
				untimed(b, func() { pi = decode(b, body) })
				validate(b, pi)
			}},
			{"encode", func(b *testing.B) {
				var pi *core.ProbInstance
				untimed(b, func() { pi = decode(b, body); validate(b, pi) })
				benchRecord = codec.AppendBinary(benchRecord[:0], pi)
			}},
			{"profile+index", func(b *testing.B) {
				var pi *core.ProbInstance
				untimed(b, func() { pi = decode(b, body); validate(b, pi) })
				profileIndex(pi)
			}},
			{"whole", func(b *testing.B) {
				pi := decode(b, body)
				validate(b, pi)
				benchRecord = codec.AppendBinary(benchRecord[:0], pi)
				profileIndex(pi)
			}},
		}
		for _, st := range stages {
			b.Run(fmt.Sprintf("%s/objects=%d", st.name, n), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.run(b)
				}
			})
		}
	}
}

// TestPutPipelineAllocs: what ingest_mix's 341-object PUT asks of the
// library, allocation by allocation — the text decode, ValidateLite, the
// binary record and the governor profile plus path index — on one fresh
// decode. It was 2 102 while every per-object table was a map keyed by the
// id string and the encoder interned every string again; with one number
// per object (DESIGN §31) it is 1 213, almost all of it the decode's local
// probability functions. The race detector changes what escapes, so the
// test does not run under it.
func TestPutPipelineAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts under -race are not the program's")
	}
	body := putBody(t, 4)
	var record []byte
	const ceiling = 1260
	n := testing.AllocsPerRun(20, func() {
		pi, err := codec.DecodeText(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := pi.ValidateLite(); err != nil {
			t.Fatal(err)
		}
		record = codec.AppendBinary(record[:0], pi)
		benchProfile = govern.Measure(pi)
		benchIndex = pathexpr.NewIndex(pi.WeakInstance.Graph())
	})
	if n > ceiling {
		t.Fatalf("a 341-object PUT allocates %v times, ceiling %d", n, ceiling)
	}
}

// harnessConfig is e2ebench's base Config: the README's hardened
// deployment, so the limiter, the request deadline, the governor and the
// breaker are all on the path.
func harnessConfig() Config {
	return Config{
		RequestTimeout:   30 * time.Second,
		MaxInflight:      64,
		QueryDeadline:    10 * time.Second,
		QueryMaxNodes:    1 << 30,
		BreakerThreshold: 5,
	}
}

// nopWriter is a ResponseWriter that keeps the status and drops the body.
type nopWriter struct {
	hdr    http.Header
	status int
}

func (w *nopWriter) Header() http.Header { return w.hdr }
func (w *nopWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *nopWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// replay is one point query against one generated tree, served through
// Handler() over and over with the same request and writer, as e2ebench
// serves point_hot.
type replay struct {
	h    http.Handler
	req  *http.Request
	body *bytes.Reader
	stmt []byte
	w    nopWriter
}

func newReplay(tb testing.TB, cfg Config, depth int) *replay {
	tb.Helper()
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	p, o, ok := in.RandomSelection(rand.New(rand.NewSource(20030305)))
	if !ok {
		tb.Fatal("no selection on the generated tree")
	}
	return replayOf(tb, cfg, in.PI, "PROB "+p.String()+" = "+o)
}

// newDAGReplay is infer_dag's op: PROB OBJECT on a leaf of a width-5,
// two-parent diamond DAG, with a result cache that holds nothing, so every
// op parses and runs the BN lane.
func newDAGReplay(tb testing.TB) *replay {
	tb.Helper()
	pi, err := gen.WidthBomb(gen.BombConfig{Width: 5, Parents: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := harnessConfig()
	cfg.ResultCacheBytes = 1
	return replayOf(tb, cfg, pi, "PROB OBJECT leaf2")
}

// replayOf serves stmt on pi, stored as instance hot0 of a new server.
func replayOf(tb testing.TB, cfg Config, pi *core.ProbInstance, stmt string) *replay {
	tb.Helper()
	s := MustNew(cfg)
	tb.Cleanup(func() { s.Close() })
	if err := s.Put("hot0", pi); err != nil {
		tb.Fatal(err)
	}
	rp := &replay{h: s.Handler(), stmt: []byte(stmt), w: nopWriter{hdr: http.Header{}}}
	rp.body = bytes.NewReader(rp.stmt)
	var err error
	rp.req, err = http.NewRequest(http.MethodPost, "/v1/instances/hot0/query", rp.body)
	if err != nil {
		tb.Fatal(err)
	}
	return rp
}

// serve replays the request and returns the status.
func (rp *replay) serve() int {
	rp.body.Reset(rp.stmt)
	clear(rp.w.hdr)
	rp.w.status = 0
	rp.h.ServeHTTP(&rp.w, rp.req)
	return rp.w.status
}

func benchReplay(b *testing.B, rp *replay) {
	if st := rp.serve(); st != http.StatusOK {
		b.Fatalf("warm-up status %d", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := rp.serve(); st != http.StatusOK {
			b.Fatalf("status %d", st)
		}
	}
}

// BenchmarkCachedHit is point_hot's op: a PROB statement on a 5 461-object
// tree answered from the result cache, through the whole handler stack.
func BenchmarkCachedHit(b *testing.B) { benchReplay(b, newReplay(b, harnessConfig(), 6)) }

// BenchmarkQueryMiss is the same request with a result cache that holds
// nothing, so every op parses and evaluates on the tree lane.
func BenchmarkQueryMiss(b *testing.B) {
	cfg := harnessConfig()
	cfg.ResultCacheBytes = 1
	benchReplay(b, newReplay(b, cfg, 6))
}

// BenchmarkQueryMissDAG is infer_dag's PROB OBJECT on a leaf through the
// whole handler stack: admission, the governor, the BN lane and the
// response, with nothing cached.
func BenchmarkQueryMissDAG(b *testing.B) { benchReplay(b, newDAGReplay(b)) }

// BenchmarkRoute is the router alone on point_hot's route: every handler
// of the table does nothing and runs bare, so what is timed is the match.
// It allocates nothing.
func BenchmarkRoute(b *testing.B) {
	s := MustNew(Config{})
	b.Cleanup(func() { s.Close() })
	table := s.routes()
	for i := range table {
		table[i].class, table[i].handle = classProbe, func(context.Context, http.ResponseWriter, *http.Request) {}
	}
	rt := s.newRouter(table)
	req, err := http.NewRequest(http.MethodPost, "/v1/instances/hot0/query", nil)
	if err != nil {
		b.Fatal(err)
	}
	w := &reqState{ResponseWriter: &nopWriter{hdr: http.Header{}}}
	if n := testing.AllocsPerRun(10, func() { rt.ServeHTTP(w, req) }); n != 0 || w.name != "hot0" {
		b.Fatalf("routed to name %q with %v allocations, want hot0 with none", w.name, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.ServeHTTP(w, req)
	}
}
