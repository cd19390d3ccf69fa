package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pxml/internal/algebra"
	"pxml/internal/bayes"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/engine"
	"pxml/internal/govern"
	"pxml/internal/pathexpr"
	"pxml/internal/pxql"
	"pxml/internal/vfs"
)

// tracedOps caps how many ops of the script a traced round replays, so
// point_hot's 100 000-op script does not turn into millions of spans.
const tracedOps = 2000

// tracedRounds is how many times the traced run replays those ops.
const tracedRounds = 2

// probeSample is how many requests or instances a per-layer probe times.
const probeSample = 64

// sample collects durations and reads their median.
type sample []int64

func (s *sample) add(d time.Duration) { *s = append(*s, int64(d)) }

func (s sample) p50() time.Duration {
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return time.Duration(quantile(s, 0.5))
}

// perCall times n back-to-back calls of f and returns the time of one:
// for calls too short for a clock read around each.
func perCall(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// refSpin is a fixed arithmetic loop (about 200 ms on the machine the
// baseline was taken on). It touches none of the repository's code: when
// it differs by more than 5 % between two sets of runs, the machine moved,
// not the program.
func refSpin(sz sizes) time.Duration {
	n := sz.of(100_000_000, 1)
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(start)
}

var spinSink uint64

// refWalk is the memory-bound counterpart of refSpin: a fixed pointer
// chase of two million hops through one 16 MiB cycle, four times the L2.
// Interference from other tenants of the host's last-level cache slows it,
// and with it the allocation-heavy workloads, while refSpin stays put.
func refWalk(sz sizes) time.Duration {
	n := sz.of(4<<20, 1<<10)
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle with a fixed generator: one cycle through every slot.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	start := time.Now()
	at := uint32(0)
	for i := 0; i < n/2; i++ {
		at = next[at]
	}
	spinSink += uint64(at)
	return time.Since(start)
}

// evenly picks up to n indexes spread over [0, total). The step is odd so
// that a table whose kinds alternate is not sampled on one kind only.
func evenly(total, n int) []int {
	if n > total {
		n = total
	}
	out := make([]int, n)
	if n == 0 {
		return out
	}
	step := total/n | 1
	for i := range out {
		out[i] = i * step % total
	}
	return out
}

// runTraced is the run the per-layer numbers come from. It sets up like
// an untraced run, counts over one untraced round, replays a prefix of the
// script twice with every op run through the handler and then unrolled,
// and finally probes each layer's public functions with this workload's
// own inputs. A layer the workload never enters reads 0.
func runTraced(name string, seed int64, sz sizes, _ time.Duration, dir string) (*result, error) {
	spin, walk := refSpin(sz), refWalk(sz)
	hn, err := setUp(name, seed, sz, storeDir(dir, 0))
	if err != nil {
		return nil, err
	}
	defer hn.close()
	w := hn.w
	mt := map[string]metric{}
	put := func(name string, v float64, unit string) { mt[name] = metric{v, unit} }

	rd, err := countedRound(hn, put)
	if err != nil {
		return nil, err
	}

	// The wire probe runs here, while every name still serves the version
	// the script's last pass left, which is what its last requests ask for.
	loop, err := probeLoopback(hn, sz.of(300, 20))
	if err != nil {
		return nil, err
	}
	put("server.loopback_us_p50", us(loop), "us")

	// Traced rounds. The mirror first replays the whole script untraced,
	// so its cache is in the state the server's is in.
	m, err := newMirror(hn, filepath.Join(dir, "mirror"))
	if err != nil {
		return nil, err
	}
	defer m.close()
	for _, i := range w.script {
		if err := m.unrolled(i); err != nil {
			return nil, fmt.Errorf("mirror warm-up: %w", err)
		}
	}
	m.tr.spans, m.failed = m.tr.spans[:0], 0
	m.algProject, m.algSelect, m.algOps = algebra.Timings{}, algebra.Timings{}, [2]int{}
	prefix := w.script[:min(len(w.script), tracedOps)]
	for r := 0; r < tracedRounds; r++ {
		for n, i := range prefix {
			m.tr.op = int32(r*len(prefix) + n)
			m.handler(i)
			if err := m.unrolled(i); err != nil {
				return nil, fmt.Errorf("traced replay: %w", err)
			}
		}
	}
	at := attribute(m.tr.spans)
	path, err := writeTrace(filepath.Dir(dir), name, seed, m.tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(m.tr.spans), path)

	handlerP50 := sample(at.handler).p50()
	put("server.handler_us_p50", us(handlerP50), "us")
	put("server.self_us_p50", us(max(sample(at.self).p50(), 0)), "us")
	put("server.unattributed_frac", ratio(float64(at.residual), float64(at.handlerT)), "ratio")
	put("server.untraced_us_p50", us(rd.p50), "us")
	put("trace.overhead_frac", ratio(float64(handlerP50), float64(rd.p50))-1, "ratio")
	for _, l := range shareLayers {
		put("share."+l, at.share(l), "ratio")
	}
	// The Fig 7 phases, as the mean per decomposed op.
	per := func(d time.Duration, n int) float64 { return ratio(us(d), float64(n)) }
	put("algebra.project_locate_us", per(m.algProject.Locate, m.algOps[0]), "us")
	put("algebra.project_struct_us", per(m.algProject.Structure, m.algOps[0]), "us")
	put("algebra.project_update_us", per(m.algProject.Update, m.algOps[0]), "us")
	put("algebra.select_copy_us", per(m.algSelect.Copy, m.algOps[1]), "us")
	put("algebra.select_update_us", per(m.algSelect.Update, m.algOps[1]), "us")

	if err := probeStatements(m, put); err != nil {
		return nil, err
	}
	if err := probeInstances(m, put); err != nil {
		return nil, err
	}
	probeComponents(m, put)
	if err := probeStorage(m, dir, put); err != nil {
		return nil, err
	}
	put("runtime.ref_spin_ms", ms(spin+refSpin(sz))/2, "ms")
	put("runtime.ref_walk_ms", ms(walk+refWalk(sz))/2, "ms")
	put("runtime.peak_rss_mb", peakRSSMiB(), "MiB")

	var reopen time.Duration
	if hn.w.durable {
		if reopen, err = hn.checkDurable(); err != nil {
			return nil, err
		}
	}
	put("store.reopen_ms", ms(reopen), "ms")
	failed := hn.failed + m.failed
	return &result{Correct: failed == 0, Attempted: hn.attempt, Failed: failed, Metrics: mt}, nil
}

// countedRound times one untraced round and reports what /v1/metrics and
// runtime.MemStats, read at its two boundaries, counted over it.
func countedRound(hn *harness, put func(string, float64, string)) (round, error) {
	w := hn.w
	var ms0, ms1 runtime.MemStats
	m0, err := hn.metrics()
	if err != nil {
		return round{}, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	rd := hn.timedRound()
	runtime.ReadMemStats(&ms1)
	m1, err := hn.metrics()
	if err != nil {
		return round{}, err
	}
	ops := float64(len(w.script))
	var puts, userBytes float64
	for _, i := range w.script {
		if rq := &w.requests[i]; rq.kind == kindPut {
			puts++
			userBytes += float64(len(rq.body))
		}
	}
	delta := func(name string) float64 { return float64(m1.counter(name) - m0.counter(name)) }
	hits := float64(m1.ResultCache.Hits - m0.ResultCache.Hits)
	misses := float64(m1.ResultCache.Misses - m0.ResultCache.Misses)
	put("rescache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("rescache.evictions_per_op", float64(m1.ResultCache.Evictions-m0.ResultCache.Evictions)/ops, "count")
	put("govern.steps_per_op", float64(m1.sumPrefix("query_cost_actual_steps.")-m0.sumPrefix("query_cost_actual_steps."))/ops, "count")
	put("store.fsyncs_per_put", ratio(delta("store_wal_fsyncs"), puts), "count")
	put("store.wal_bytes_per_user_byte", ratio(delta("store_wal_append_bytes"), userBytes), "ratio")
	put("store.compactions", delta("store_compactions"), "count")
	put("server.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops, "count")
	put("server.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops, "KiB")
	put("runtime.gc_cycles_per_kop", float64(ms1.NumGC-ms0.NumGC)/ops*1000, "count")
	put("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	return rd, nil
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shareLayers are the layers the traced replay splits handler time over.
var shareLayers = []string{"server", "admission", "govern", "rescache", "pxql", "engine", "query", "bayes", "algebra", "codec", "core", "store"}

// probeStatements times, for a sample of the workload's statements, the
// parse, the shape classification, a whole engine.Run on warm structures
// with no result cache, and the lane's kernel alone.
func probeStatements(m *mirror, put func(string, float64, string)) error {
	w := m.hn.w
	var queries []int
	for i := range w.requests {
		if w.requests[i].kind != kindPut {
			queries = append(queries, i)
		}
	}
	var parse, classify, run, self, targets sample
	kernels := map[int]*sample{}
	var bayesAllocs, bayesCalls uint64
	ctx := context.Background()
	// An engine per instance, not per name: on ingest_mix a name has
	// served many instances and holds only the last.
	engines := map[*core.ProbInstance]*engine.Engine{}
	for _, k := range evenly(len(queries), probeSample) {
		rq := &w.requests[queries[k]]
		eng := engines[rq.pi]
		if eng == nil {
			eng = engine.New(rq.pi, engine.WithBudget(m.budget))
			engines[rq.pi] = eng
		}
		if _, err := eng.Run(ctx, rq.text); err != nil { // structures warm before timing
			return err
		}
		start := time.Now()
		if _, err := eng.Run(ctx, rq.text); err != nil {
			return err
		}
		dRun := time.Since(start)
		start = time.Now()
		if _, err := pxql.Parse(rq.text); err != nil {
			return err
		}
		dParse := time.Since(start)
		var ms0, ms1 runtime.MemStats
		lane := rq.kind == kindObject || (rq.kind == kindPoint && !rq.tree)
		if lane {
			runtime.ReadMemStats(&ms0)
		}
		dKernel, err := m.kernel(ctx, eng, rq, nil)
		if err != nil {
			return err
		}
		if lane {
			runtime.ReadMemStats(&ms1)
			bayesAllocs += ms1.Mallocs - ms0.Mallocs
			bayesCalls++
		}
		run.add(dRun)
		parse.add(dParse)
		self.add(max(dRun-dParse-dKernel, 0))
		classify.add(perCall(64, func() { pxql.ClassifyShape(rq.text) }))
		kind := rq.kind
		if kind == kindPoint && !rq.tree {
			kind = -1 // the BN lane's point query
		}
		if kernels[kind] == nil {
			kernels[kind] = &sample{}
		}
		kernels[kind].add(dKernel)
		if rq.kind != kindObject {
			idx := eng.Index()
			start = time.Now()
			rq.path.TargetsIndexed(idx)
			targets.add(time.Since(start))
		}
	}
	kernel := func(kind int) time.Duration {
		if s := kernels[kind]; s != nil {
			return s.p50()
		}
		return 0
	}
	put("pxql.parse_ns_p50", float64(parse.p50()), "ns")
	put("pxql.classify_ns_p50", float64(classify.p50()), "ns")
	put("engine.run_us_p50", us(run.p50()), "us")
	put("engine.self_us_p50", us(self.p50()), "us")
	put("pathexpr.targets_us_p50", us(targets.p50()), "us")
	put("query.point_us_p50", us(kernel(kindPoint)), "us")
	put("bayes.path_prob_ms_p50", ms(kernel(-1)), "ms")
	put("bayes.prob_exists_ms_p50", ms(kernel(kindObject)), "ms")
	put("algebra.project_ms_p50", ms(kernel(kindProject)), "ms")
	put("algebra.select_ms_p50", ms(kernel(kindSelect)), "ms")
	put("bayes.allocs_per_query", ratio(float64(bayesAllocs), float64(bayesCalls)), "count")
	return nil
}

// probeInstances times what the engine builds per instance version.
func probeInstances(m *mirror, put func(string, float64, string)) error {
	w := m.hn.w
	var pis []*core.ProbInstance
	seen := map[*core.ProbInstance]bool{}
	for i := range w.requests {
		if pi := w.requests[i].pi; !seen[pi] {
			seen[pi] = true
			pis = append(pis, pi)
		}
	}
	var measure, build, index, compile sample
	ctx := context.Background()
	for _, k := range evenly(len(pis), probeSample) {
		pi := pis[k]
		start := time.Now()
		prof := govern.Measure(pi)
		measure.add(time.Since(start))
		start = time.Now()
		if err := engine.New(pi, engine.WithBudget(m.budget)).Warm(ctx); err != nil {
			return err
		}
		build.add(time.Since(start))
		start = time.Now()
		pathexpr.NewIndex(pi.WeakInstance.Graph())
		index.add(time.Since(start))
		if !prof.Tree { // the engine compiles a network for DAGs only
			start = time.Now()
			if _, err := bayes.Compile(pi); err != nil {
				return err
			}
			compile.add(time.Since(start))
		}
	}
	put("govern.measure_us_p50", us(measure.p50()), "us")
	put("engine.build_us_p50", us(build.p50()), "us")
	put("pathexpr.index_build_us_p50", us(index.p50()), "us")
	put("bayes.compile_us_p50", us(compile.p50()), "us")
	return nil
}

// probeComponents times the per-request middleware pieces and the result
// cache, the latter on the mirror's cache as the traced rounds left it:
// filled to what this workload fills it to.
func probeComponents(m *mirror, put func(string, float64, string)) {
	const batch, batches = 256, 41
	var admit, breaker, hit, insert sample
	for b := 0; b < batches; b++ {
		admit.add(perCall(batch, func() {
			m.adm.Admit("probe")
			m.adm.Release("probe")
		}))
		breaker.add(perCall(batch, func() {
			m.br.Allow("probe.point")
			m.br.Record("probe.point", false)
		}))
	}
	put("admission.admit_ns_p50", float64(admit.p50()), "ns")
	put("govern.breaker_ns_p50", float64(breaker.p50()), "ns")

	w := m.hn.w
	var resident []string
	for i := range w.requests {
		rq := &w.requests[i]
		if key := m.prefix[rq.name] + rq.text; rq.kind != kindPut {
			if _, ok := m.cache.Get(key); ok {
				resident = append(resident, key)
			}
		}
	}
	ctx := context.Background()
	never := func() (any, int64, error) { panic("probe: resident key missed") }
	for b := 0; b < batches && len(resident) > 0; b++ {
		n := 0
		hit.add(perCall(batch, func() {
			m.cache.DoCtx(ctx, resident[n%len(resident)], never)
			n++
		}))
	}
	put("rescache.hit_ns_p50", float64(hit.p50()), "ns")
	val := &pxql.Result{Text: "probe"}
	for n := 0; n < batch*4; n++ {
		key := "probe\x00" + strconv.Itoa(n)
		start := time.Now()
		m.cache.DoCtx(ctx, key, func() (any, int64, error) { return val, 128, nil })
		insert.add(time.Since(start))
	}
	put("rescache.insert_us_p50", us(insert.p50()), "us")
}

// probeStorage times the write path's pieces on the workload's PUT bodies
// (0 for a workload that never writes), and one 4 KiB append + fsync in
// the work directory, which explains ingest_mix's spread and moves nothing.
func probeStorage(m *mirror, dir string, put func(string, float64, string)) error {
	var decode, encode, validate, storePut sample
	var binBytes, objects float64
	w := m.hn.w
	var puts []int
	for i := range w.requests {
		if w.requests[i].kind == kindPut {
			puts = append(puts, i)
		}
	}
	for _, k := range evenly(len(puts), probeSample) {
		rq := &w.requests[puts[k]]
		start := time.Now()
		pi, err := codec.DecodeText(bytes.NewReader(rq.body))
		if err != nil {
			return err
		}
		decode.add(time.Since(start))
		start = time.Now()
		if err := pi.ValidateLite(); err != nil {
			return err
		}
		validate.add(time.Since(start))
		start = time.Now()
		bin := codec.AppendBinary(nil, pi)
		encode.add(time.Since(start))
		binBytes += float64(len(bin))
		objects += float64(pi.NumObjects())
		start = time.Now()
		if err := m.st.Put(rq.name, pi); err != nil {
			return err
		}
		storePut.add(time.Since(start))
	}
	put("codec.decode_text_us_p50", us(decode.p50()), "us")
	put("codec.encode_binary_us_p50", us(encode.p50()), "us")
	put("codec.binary_bytes_per_object", ratio(binBytes, objects), "count")
	put("core.validate_us_p50", us(validate.p50()), "us")
	put("store.put_us_p50", us(storePut.p50()), "us")

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := vfs.OS.OpenAppend(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var fsync sample
	page := make([]byte, 4096)
	for n := 0; n < 31; n++ {
		start := time.Now()
		if _, err := f.Write(page); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		fsync.add(time.Since(start))
	}
	put("vfs.fsync_us_p50", us(fsync.p50()), "us")
	return nil
}

// probeLoopback measures what the end-to-end numbers leave out: the same
// requests over a real net/http round trip on 127.0.0.1, minus the same
// requests in-process. It is the only listening port the harness opens.
func probeLoopback(hn *harness, samples int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("loopback probe: %w", err)
	}
	srv := &http.Server{Handler: hn.h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	client := &http.Client{}
	base := "http://" + ln.Addr().String()
	var extra sample
	var firstErr error
	w := hn.w
	tail := w.script[max(len(w.script)-128, 0):]
	for n := 0; n < samples; n++ {
		ri := tail[n%len(tail)]
		rq, req := &w.requests[ri], hn.reqs[ri]
		if rq.kind == kindPut {
			continue // a PUT would move the served version under the script
		}
		start := time.Now()
		resp, err := client.Post(base+req.URL.Path, "text/plain", bytes.NewReader(hn.bodies[ri].data))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		wire := time.Since(start)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		start = time.Now()
		hn.serve(ri)
		extra.add(wire - time.Since(start))
	}
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	<-done // Serve has returned: the listener is closed and no goroutine of ours is left
	if firstErr != nil {
		return 0, fmt.Errorf("loopback probe: %w", firstErr)
	}
	return max(extra.p50(), 0), nil
}
