package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/server"
)

// recorder is the in-process http.ResponseWriter: it keeps the status and
// the body and is reused across ops so the harness adds no allocation of
// its own to the timed region.
type recorder struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.buf = append(r.buf, b...)
	return len(b), nil
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.buf = r.buf[:0]
}

// rewindBody is a request body that can be replayed without reallocating.
type rewindBody struct {
	bytes.Reader
	data []byte
}

func (b *rewindBody) Close() error { return nil }

// harness is one booted server plus the prepared requests of a workload.
type harness struct {
	w       *workload
	srv     *server.Server
	h       http.Handler
	dir     string // store directory; "" when in memory
	reqs    []*http.Request
	bodies  []*rewindBody
	rec     recorder
	expect  [][]byte // per request: the warm-up response every later response must equal
	lat     []int64  // per-op latency of the current round, ns
	failed  int
	attempt int
	lastPut map[string]int // name → request index of the last PUT served
}

// boot starts a server for w and installs its preloaded instances.
func boot(w *workload, dir string) (*harness, error) {
	cfg := w.cfg
	if w.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cfg.StoreDir = dir
	} else {
		dir = ""
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	hn := &harness{w: w, srv: srv, h: srv.Handler(), dir: dir, rec: recorder{hdr: http.Header{}}, lastPut: map[string]int{}}
	for _, p := range w.preload {
		if err := srv.Put(p.name, p.pi); err != nil {
			hn.close()
			return nil, fmt.Errorf("install %s: %w", p.name, err)
		}
	}
	hn.reqs = make([]*http.Request, len(w.requests))
	hn.bodies = make([]*rewindBody, len(w.requests))
	for i := range w.requests {
		hn.reqs[i], hn.bodies[i] = newRequest(&w.requests[i])
	}
	hn.expect = make([][]byte, len(w.requests))
	hn.lat = make([]int64, len(w.script))
	return hn, nil
}

func newRequest(rq *request) (*http.Request, *rewindBody) {
	method, url, data := http.MethodPost, apiv1.Prefix+"/instances/"+rq.name+"/query", []byte(rq.text)
	if rq.kind == kindPut {
		method, url, data = http.MethodPut, apiv1.Prefix+"/instances/"+rq.name, rq.body
	}
	body := &rewindBody{data: data}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		panic(err) // the URL is built from fixed parts
	}
	req.ContentLength = int64(len(data))
	return req, body
}

// close shuts the server down and removes its store directory.
func (hn *harness) close() error {
	err := hn.srv.Close()
	if hn.dir != "" {
		if rerr := os.RemoveAll(hn.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// serve sends request i through the handler and leaves the response in
// hn.rec.
func (hn *harness) serve(i int) {
	b := hn.bodies[i]
	b.Reset(b.data)
	hn.rec.reset()
	hn.h.ServeHTTP(&hn.rec, hn.reqs[i])
	if rq := &hn.w.requests[i]; rq.kind == kindPut {
		hn.lastPut[rq.name] = i
	}
}

// answered reports whether the response to request i now in hn.rec is a
// success carrying the expected answer.
func (hn *harness) answered(i int) bool {
	return okStatus(hn.w.requests[i].kind, hn.rec.status) && sameAnswer(hn.expect[i], hn.rec.buf)
}

func okStatus(kind, status int) bool {
	if kind == kindPut {
		return status == http.StatusCreated
	}
	return status == http.StatusOK
}

// warmRound runs the script once untimed, records each request's first
// response as the expected one and checks it against the oracle.
func (hn *harness) warmRound(or *oracle) error {
	for _, i := range hn.w.script {
		hn.serve(i)
		rq := &hn.w.requests[i]
		if !okStatus(rq.kind, hn.rec.status) {
			return fmt.Errorf("warm-up: %s %s %q: status %d: %s", rq.name, kindName(rq.kind), rq.text, hn.rec.status, hn.rec.buf)
		}
		if hn.expect[i] == nil {
			hn.expect[i] = append([]byte(nil), hn.rec.buf...)
			if err := or.check(i, hn.rec.buf); err != nil {
				return fmt.Errorf("warm-up: %s %q: %w", rq.name, rq.text, err)
			}
		} else if !sameAnswer(hn.expect[i], hn.rec.buf) {
			return fmt.Errorf("warm-up: %s %q: answer changed between repeats: %s then %s", rq.name, rq.text, hn.expect[i], hn.rec.buf)
		}
	}
	return nil
}

// sameAnswer reports whether a response equals the warm-up's. Responses
// are byte-identical from run to run with one exception: SELECT sums its
// probability in map-iteration order, so its last digits move. For such a
// body everything up to "prob": must still be identical (that includes the
// rendered text, which carries nine decimals) and the number itself must
// agree within the oracle's tolerance.
func sameAnswer(want, got []byte) bool {
	if bytes.Equal(want, got) {
		return true
	}
	const key = `"prob":`
	i, j := bytes.Index(want, []byte(key)), bytes.Index(got, []byte(key))
	if i < 0 || j != i || !bytes.Equal(want[:i], got[:j]) {
		return false
	}
	num := func(b []byte) (float64, error) {
		b = b[i+len(key):]
		if k := bytes.IndexAny(b, ",}"); k >= 0 {
			b = b[:k]
		}
		return strconv.ParseFloat(string(b), 64)
	}
	a, errA := num(want)
	b, errB := num(got)
	return errA == nil && errB == nil && agree(b, a)
}

// round is what one timed repetition of the script measured.
type round struct {
	wall time.Duration
	cpu  time.Duration
	p50  time.Duration
	p95  time.Duration
}

// rusage reads the process's resource usage; a failed read is all zeros.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// settledRSSMiB is the resident set once the collector has run and handed
// every freed page back: what the process holds on to, as opposed to
// ru_maxrss, which also counts garbage that happened to be resident at the
// worst moment and moves by ±10 % with the collector's timing.
func settledRSSMiB() (float64, error) {
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", raw)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// timedRound replays the script with a clock around every op. The
// collector runs before the clock starts, not inside it.
func (hn *harness) timedRound() round {
	runtime.GC()
	var rd round
	script := hn.w.script
	cpu0, t0 := cpuTime(), time.Now()
	for n, i := range script {
		s := time.Now()
		hn.serve(i)
		hn.lat[n] = int64(time.Since(s))
		if !hn.answered(i) {
			hn.failed++
		}
	}
	rd.wall, rd.cpu = time.Since(t0), cpuTime()-cpu0
	sort.Slice(hn.lat, func(a, b int) bool { return hn.lat[a] < hn.lat[b] })
	rd.p50 = time.Duration(quantile(hn.lat, 0.50))
	rd.p95 = time.Duration(quantile(hn.lat, 0.95))
	hn.attempt += len(script)
	return rd
}

// quantile reads the q-quantile off a sorted sample (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// serverMetrics is the part of GET /v1/metrics the harness reads counts
// from, taken at round boundaries.
type serverMetrics struct {
	Server      map[string]json.RawMessage `json:"server"`
	ResultCache struct {
		Hits, Misses, Evictions int64
	} `json:"result_cache"`
}

func (m *serverMetrics) counter(name string) int64 {
	var v int64
	_ = json.Unmarshal(m.Server[name], &v) // absent or non-integer reads as 0
	return v
}

// sumPrefix adds the "sum" of every int histogram whose name starts with
// prefix (query_cost_actual_steps.<shape>).
func (m *serverMetrics) sumPrefix(prefix string) int64 {
	var total int64
	for name, raw := range m.Server {
		if strings.HasPrefix(name, prefix) {
			var h struct{ Sum int64 }
			if json.Unmarshal(raw, &h) == nil {
				total += h.Sum
			}
		}
	}
	return total
}

func (hn *harness) metrics() (*serverMetrics, error) {
	req, err := http.NewRequest(http.MethodGet, apiv1.Prefix+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	rec := recorder{hdr: http.Header{}}
	hn.h.ServeHTTP(&rec, req)
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", rec.status)
	}
	var m serverMetrics
	if err := json.Unmarshal(rec.buf, &m); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return &m, nil
}

// setUp does everything a run does before timing starts: inputs from the
// seed, the oracle's answers, a booted server with its instances loaded,
// and warm-up rounds (one, or for ingest_mix as many as fill the result
// cache).
func setUp(name string, seed int64, sz sizes, dir string) (*harness, error) {
	w, err := buildWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(w, sz)
	if err != nil {
		return nil, err
	}
	hn, err := boot(w, dir)
	if err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		if err := hn.warmRound(or); err != nil {
			hn.close()
			return nil, err
		}
		if !w.fillCache {
			break
		}
		m, err := hn.metrics()
		if err != nil {
			hn.close()
			return nil, err
		}
		if m.ResultCache.Evictions > 0 {
			break
		}
		if n == 200 {
			hn.close()
			return nil, fmt.Errorf("result cache never filled in %d warm-up rounds", n)
		}
	}
	return hn, nil
}

func kindName(kind int) string {
	return [...]string{"point", "object", "project", "select", "put"}[kind]
}
