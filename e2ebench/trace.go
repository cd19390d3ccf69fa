package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pxml/internal/admission"
	"pxml/internal/algebra"
	"pxml/internal/bayes"
	"pxml/internal/codec"
	"pxml/internal/engine"
	"pxml/internal/govern"
	"pxml/internal/pxql"
	"pxml/internal/query"
	"pxml/internal/rescache"
	"pxml/internal/store"
)

// span is one timed call into a layer. Spans of one op share its op id;
// parent is the span that was open when this one began (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int32
}

func (t *tracer) begin(name string) int32 {
	id, parent := int32(len(t.spans)), int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, id)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// Root spans. Every op is executed twice in a traced round: once through
// the handler, once unrolled through the same public functions in request
// order. An op that missed the cache is decomposed a third time, into the
// parse and the lane's kernel that engine.Run called beneath it.
const (
	spanHandler  = "server.handler"
	spanUnrolled = "unrolled"
	spanParts    = "parts"
)

// mirror is the harness's own copy of the components the handler wires
// together, configured like the server's, so each can be called and timed
// from outside.
type mirror struct {
	hn      *harness
	tr      *tracer
	adm     *admission.Controller
	br      *govern.Breaker
	cache   *rescache.Cache
	budget  govern.Budget
	engines map[string]*engine.Engine
	prefix  map[string]string
	version int
	st      *store.Store
	stDir   string
	enc     bytes.Buffer
	// Fig 7 phase timings summed over the PROJECT and SELECT kernels
	// called, and how many of each there were.
	algProject, algSelect algebra.Timings
	algOps                [2]int
	failed                int
}

func newMirror(hn *harness, dir string) (*mirror, error) {
	cfg := hn.w.cfg
	adm, err := admission.New(admission.Config{InflightLimit: cfg.MaxInflight})
	if err != nil {
		return nil, err
	}
	cacheBytes := cfg.ResultCacheBytes
	if cacheBytes <= 0 {
		cacheBytes = 32 << 20 // the server's default
	}
	m := &mirror{
		hn:      hn,
		tr:      &tracer{epoch: time.Now()},
		adm:     adm,
		br:      govern.NewBreaker(govern.BreakerConfig{Threshold: cfg.BreakerThreshold}),
		cache:   rescache.New(cacheBytes),
		budget:  govern.Budget{Deadline: cfg.QueryDeadline, MaxSteps: cfg.QueryMaxNodes, MaxBytes: cfg.QueryMaxBytes},
		engines: map[string]*engine.Engine{},
		prefix:  map[string]string{},
	}
	for _, p := range hn.w.preload {
		m.install(p.name, engine.New(p.pi, engine.WithBudget(m.budget)))
	}
	if hn.w.durable {
		m.stDir = dir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if m.st, _, err = store.Open(dir, cfg.StoreOptions); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// install publishes an engine under a fresh cache-key prefix, as the
// server's newEngine does.
func (m *mirror) install(name string, eng *engine.Engine) {
	m.version++
	m.engines[name] = eng
	m.prefix[name] = fmt.Sprintf("%s@%d\x00", name, m.version)
}

func (m *mirror) close() error {
	if m.st == nil {
		return nil
	}
	err := m.st.Close()
	if rerr := os.RemoveAll(m.stDir); err == nil {
		err = rerr
	}
	return err
}

// handler runs request i through the real handler under one span.
func (m *mirror) handler(i int) {
	hn := m.hn
	id := m.tr.begin(spanHandler)
	hn.serve(i)
	m.tr.end(id)
	hn.attempt++
	if !hn.answered(i) {
		hn.failed++
	}
}

// unrolled repeats request i through the mirror's components in the order
// the handler reaches them, one span per call, and requires the answer it
// assembles to equal the handler's.
func (m *mirror) unrolled(i int) error {
	tr, rq := m.tr, &m.hn.w.requests[i]
	root := tr.begin(spanUnrolled)
	s := tr.begin("admission.admit")
	d := m.adm.Admit(rq.name)
	tr.end(s)
	if !d.OK {
		return fmt.Errorf("mirror admission shed %s", rq.name)
	}
	s = tr.begin("server.deadline")
	ctx, cancel := context.WithTimeout(context.Background(), m.hn.w.cfg.RequestTimeout)
	tr.end(s)
	defer cancel()
	var resp any
	missed := false
	if rq.kind == kindPut {
		s = tr.begin("codec.decode_text")
		pi, err := codec.DecodeText(bytes.NewReader(rq.body))
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("core.validate")
		err = pi.ValidateLite()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("store.put")
		err = m.st.Put(rq.name, pi)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("engine.new")
		m.install(rq.name, engine.New(pi, engine.WithBudget(m.budget)))
		tr.end(s)
		resp = map[string]any{"name": rq.name, "objects": pi.NumObjects()}
	} else {
		s = tr.begin("pxql.classify")
		key := rq.name + "." + pxql.ClassifyShape(rq.text)
		tr.end(s)
		s = tr.begin("govern.breaker")
		ok, _ := m.br.Allow(key)
		tr.end(s)
		if !ok {
			return fmt.Errorf("mirror breaker open for %s", key)
		}
		eng := m.engines[rq.name]
		s = tr.begin("rescache.do")
		v, err := m.cache.DoCtx(ctx, m.prefix[rq.name]+rq.text, func() (any, int64, error) {
			missed = true
			e := tr.begin("engine.run")
			r, err := eng.Run(ctx, rq.text)
			tr.end(e)
			if err != nil {
				return nil, 0, err
			}
			if r.Instance != nil {
				return r, -1, nil // never retained, as in the engine
			}
			return r, int64(len(rq.text)+len(r.Text)) + 64, nil
		})
		tr.end(s)
		s = tr.begin("govern.breaker")
		m.br.Record(key, false)
		tr.end(s)
		if err != nil {
			return err
		}
		r := v.(*pxql.Result)
		resp = struct {
			Text string   `json:"text"`
			Prob *float64 `json:"prob,omitempty"`
		}{r.Text, r.Prob}
	}
	s = tr.begin("server.encode")
	m.enc.Reset()
	err := json.NewEncoder(&m.enc).Encode(resp)
	tr.end(s)
	s = tr.begin("admission.release")
	m.adm.Release(rq.name)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return err
	}
	if !sameAnswer(m.hn.expect[i], m.enc.Bytes()) {
		m.failed++
	}
	if missed {
		return m.parts(ctx, rq)
	}
	return nil
}

// parts times what engine.Run did beneath a miss: the parse and the
// lane's kernel, under a governor like the engine's own. engine.run minus
// these two is the engine's self time.
func (m *mirror) parts(ctx context.Context, rq *request) error {
	tr := m.tr
	root := tr.begin(spanParts)
	defer tr.end(root)
	s := tr.begin("pxql.parse")
	_, err := pxql.Parse(rq.text)
	tr.end(s)
	if err != nil {
		return err
	}
	_, err = m.kernel(ctx, m.engines[rq.name], rq, tr)
	return err
}

// kernel calls the function engine.Run dispatches rq to, with eng's warm
// structures, under a span when tr is set, and returns how long the call
// took.
func (m *mirror) kernel(ctx context.Context, eng *engine.Engine, rq *request, tr *tracer) (time.Duration, error) {
	ctx = govern.With(ctx, govern.New(ctx, m.budget))
	name, call := "", func() error { return nil }
	switch {
	case rq.kind == kindPoint && rq.tree:
		idx := eng.Index()
		name, call = "query.point", func() error {
			_, err := query.PointQueryIndexedCtx(ctx, rq.pi, idx, rq.path, rq.obj)
			return err
		}
	case rq.kind == kindPoint:
		net, err := eng.Network()
		if err != nil {
			return 0, err
		}
		name, call = "bayes.path_prob", func() error {
			_, err := bayes.PathProbWithCtx(ctx, net, rq.pi, rq.path, rq.obj)
			return err
		}
	case rq.kind == kindObject:
		net, err := eng.Network()
		if err != nil {
			return 0, err
		}
		name, call = "bayes.prob_exists", func() error {
			_, err := net.ProbExistsCtx(ctx, rq.obj)
			return err
		}
	// pxql calls algebra.AncestorProject and algebra.Select, which are the
	// tree check below followed by the Timed variant; spelled out here so
	// the Fig 7 phase timings come from the same call the span covers.
	case rq.kind == kindProject:
		name, call = "algebra.project", func() error {
			if !rq.pi.IsTree() {
				return algebra.ErrNotTree
			}
			_, err := algebra.AncestorProjectTimed(rq.pi, rq.path, &m.algProject)
			m.algOps[0]++
			return err
		}
	case rq.kind == kindSelect:
		name, call = "algebra.select", func() error {
			if !rq.pi.IsTree() {
				return algebra.ErrNotTree
			}
			_, _, err := algebra.SelectTimed(rq.pi, algebra.ObjectCondition{Path: rq.path, Object: rq.obj}, &m.algSelect)
			m.algOps[1]++
			return err
		}
	}
	var id int32
	if tr != nil {
		id = tr.begin(name)
	}
	start := time.Now()
	err := call()
	d := time.Since(start)
	if tr != nil {
		tr.end(id)
	}
	return d, err
}

// attribution is the traced rounds' time split by layer.
type attribution struct {
	handler  []int64          // per op: handler span
	self     []int64          // per op: handler minus what the unrolled replay attributes to other layers
	layer    map[string]int64 // layer → summed self time
	handlerT int64
	residual int64 // handler time no unrolled span accounts for
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// attribute computes each span's self time (its duration minus its
// children's) and sums it by layer. The three root kinds are containers:
// their own self time is the harness's glue, not a layer's.
func attribute(spans []span) attribution {
	at := attribution{layer: map[string]int64{}}
	child := make([]int64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].dur()
		}
	}
	var unrolledT int64
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case spanHandler:
			at.handlerT += sp.dur()
			at.handler = append(at.handler, sp.dur())
		case spanUnrolled:
			// Spans are in start order: an op's handler span comes first,
			// then this root, then its children.
			unrolledT += sp.dur()
			at.self = append(at.self, at.handler[len(at.handler)-1]-sp.dur())
		case spanParts:
			// What engine.run spent in the parse and the kernel is theirs.
			at.layer["engine"] -= child[i]
		default:
			at.layer[layerOf(sp.Name)] += sp.dur() - child[i]
			if sp.Name == "server.encode" { // the server's own work, replayed
				at.self[len(at.self)-1] += sp.dur()
			}
		}
	}
	if at.layer["engine"] < 0 {
		at.layer["engine"] = 0
	}
	at.residual = at.handlerT - unrolledT
	if at.residual > 0 {
		at.layer["server"] += at.residual
	}
	return at
}

func (at *attribution) share(layer string) float64 {
	if at.handlerT == 0 {
		return 0
	}
	return float64(at.layer[layer]) / float64(at.handlerT)
}

// writeTrace stores the spans as JSON next to the work directory's stores.
func writeTrace(workdir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(workdir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
