package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/model"
	"pxml/internal/pathexpr"
	"pxml/internal/prob"
	"pxml/internal/server"
	"pxml/internal/store"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"point_hot", "infer_dag", "algebra_scan", "ingest_mix"}

// sizes scales a workload. The benchmark runs at full size; the smoke
// test divides every count by 100 so all four workloads finish in seconds.
type sizes struct {
	div int // 1 at full size
}

func (s sizes) of(n, floor int) int {
	if n /= s.div; n < floor {
		return floor
	}
	return n
}

// Statement kinds, which decide the oracle and the kernel the traced
// replay calls beneath engine.Run.
const (
	kindPoint   = iota // PROB <path> = <obj>
	kindObject         // PROB OBJECT <obj>
	kindProject        // PROJECT <path>
	kindSelect         // SELECT <path> = <obj>
	kindPut            // PUT /v1/instances/<name> (text codec body)
)

// request is one distinct operation of a workload: a pxql statement
// against a named instance, or a PUT of an encoded instance. A round's
// script is a sequence of indexes into the workload's request table.
type request struct {
	kind int
	name string // instance name
	text string // statement text; "" for PUT
	body []byte // PUT body (text codec)
	pi   *core.ProbInstance
	tree bool // pi's weak graph is a tree (IsTree is O(V+E), so asked once)
	path pathexpr.Path
	obj  model.ObjectID
}

// workload is everything a run needs, derived from (name, seed, sizes)
// alone: the same three give the same instances, requests and script.
//
// What the seed decides is every probability (so every answer) and the op
// order. What it does not decide is structure: the shape and labels of the
// instances and the choice of statements are the workload's own, drawn
// from fixed seeds, because inference and algebra cost follow structure
// (a path that matches 8 leaves against one that matches 60) and a
// benchmark whose cost moves ±4 % with its seed cannot see a 4 % change.
type workload struct {
	cfg      server.Config // StoreDir is filled in per set-up
	durable  bool          // boots on a store directory
	preload  []preloaded   // instances installed before the first round, in order
	requests []request
	script   []int // one round: indexes into requests
	// fillCache makes the warm-up repeat rounds until the result cache
	// has evicted, so timing starts with the cache at capacity.
	fillCache bool
}

// preloaded is an instance the server holds before the first request.
type preloaded struct {
	name string
	pi   *core.ProbInstance
}

// baseConfig is the README's hardened deployment, so the limiter, the
// request deadline, the governor and the breaker are all on the path. No
// benchmarked statement comes near the step budget; it is set because only
// then does the engine measure each instance version up front.
func baseConfig() server.Config {
	return server.Config{
		RequestTimeout:   30 * time.Second,
		MaxInflight:      64,
		QueryDeadline:    10 * time.Second,
		QueryMaxNodes:    1 << 30,
		BreakerThreshold: 5,
	}
}

func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{cfg: baseConfig()}
	// r is the seed's generator; fixed is the workload's own.
	r := rand.New(rand.NewSource(seed*7919 + 17))
	fixed := rand.New(rand.NewSource(20030305)) // ICDE 2003
	var err error
	switch name {
	case "point_hot":
		err = w.buildPointHot(sz, r, fixed)
	case "infer_dag":
		err = w.buildInferDAG(sz, r)
	case "algebra_scan":
		err = w.buildAlgebraScan(sz, r, fixed)
	case "ingest_mix":
		err = w.buildIngestMix(sz, r, fixed)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	tree := map[*core.ProbInstance]bool{}
	for i := range w.requests {
		rq := &w.requests[i]
		if _, ok := tree[rq.pi]; !ok {
			tree[rq.pi] = rq.pi.IsTree()
		}
		rq.tree = tree[rq.pi]
	}
	return w, nil
}

func (w *workload) addInstance(name string, pi *core.ProbInstance) {
	w.preload = append(w.preload, preloaded{name, pi})
}

// reweigh draws every local distribution of pi afresh from r and keeps its
// support: the structure stays the workload's, the probabilities become
// the seed's.
func reweigh(pi *core.ProbInstance, r *rand.Rand) {
	weights := func(n int) []float64 {
		w, total := make([]float64, n), 0.0
		for i := range w {
			w[i] = r.Float64() + 1e-6
			total += w[i]
		}
		for i := range w {
			w[i] /= total
		}
		return w
	}
	for _, o := range pi.SortedOPFObjects() {
		es := pi.OPF(o).Entries()
		opf := prob.NewOPFSized(len(es))
		for i, p := range weights(len(es)) {
			opf.Put(es[i].Set, p)
		}
		pi.SetOPF(o, opf)
	}
	for _, o := range pi.SortedVPFObjects() {
		es := pi.VPF(o).Entries()
		vpf := prob.NewVPFSized(len(es))
		for i, p := range weights(len(es)) {
			vpf.Put(es[i].Value, p)
		}
		pi.SetVPF(o, vpf)
	}
}

// generate builds the i-th tree of a workload: structure from a fixed
// seed, probabilities from r.
func generate(depth int, lab gen.Labeling, i int, r *rand.Rand) (*gen.Instance, error) {
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: lab, LeafDomainSize: 2, Seed: int64(1000 + i)})
	if err != nil {
		return nil, err
	}
	reweigh(in.PI, r)
	return in, nil
}

// distinctSelections draws n distinct (path, object) pairs the way the
// paper's Section 7.1 does: a satisfiable random path and one of its
// targets.
func distinctSelections(in *gen.Instance, r *rand.Rand, n int) ([]pathexpr.Path, []model.ObjectID, error) {
	seen := map[string]bool{}
	var paths []pathexpr.Path
	var objs []model.ObjectID
	for tries := 0; len(paths) < n; tries++ {
		if tries > 200*n {
			return nil, nil, fmt.Errorf("only %d of %d distinct selections found", len(paths), n)
		}
		p, o, ok := in.RandomSelection(r)
		if !ok {
			continue
		}
		key := p.String() + "=" + o
		if seen[key] {
			continue
		}
		seen[key] = true
		paths = append(paths, p)
		objs = append(objs, o)
	}
	return paths, objs, nil
}

// point_hot: every op is a result-cache hit on a large in-memory tree.
func (w *workload) buildPointHot(sz sizes, r, fixed *rand.Rand) error {
	depth := 6
	if sz.div > 1 {
		depth = 4
	}
	for i := 0; i < 8; i++ {
		in, err := generate(depth, gen.FR, i, r)
		if err != nil {
			return err
		}
		name := "hot" + strconv.Itoa(i)
		w.addInstance(name, in.PI)
		paths, objs, err := distinctSelections(in, fixed, 64)
		if err != nil {
			return err
		}
		for j := range paths {
			w.requests = append(w.requests, request{
				kind: kindPoint, name: name, pi: in.PI, path: paths[j], obj: objs[j],
				text: "PROB " + paths[j].String() + " = " + objs[j],
			})
		}
	}
	w.script = make([]int, sz.of(100000, 1000))
	for i := range w.script {
		w.script[i] = r.Intn(len(w.requests))
	}
	return nil
}

// infer_dag: uncached variable elimination on diamond DAGs of fixed width.
func (w *workload) buildInferDAG(sz sizes, r *rand.Rand) error {
	w.cfg.ResultCacheBytes = 1 // every shard's budget rounds to 0: nothing is retained
	width, parents := 5, 2
	if sz.div > 1 {
		width = 3
	}
	for i := 0; i < 4; i++ {
		pi, err := gen.WidthBomb(gen.BombConfig{Width: width, Parents: parents, Seed: 1})
		if err != nil {
			return err
		}
		reweigh(pi, r)
		name := "dag" + strconv.Itoa(i)
		w.addInstance(name, pi)
		path := pathexpr.Path{Root: pi.Root(), Labels: []model.Label{"arm", "leaf"}}
		for j := 0; j < width; j++ {
			leaf := "leaf" + strconv.Itoa(j)
			w.requests = append(w.requests,
				request{kind: kindObject, name: name, pi: pi, obj: leaf, text: "PROB OBJECT " + leaf},
				request{kind: kindPoint, name: name, pi: pi, path: path, obj: leaf, text: "PROB " + path.String() + " = " + leaf})
		}
		for j := 0; j < parents; j++ {
			arm := "arm" + strconv.Itoa(j)
			w.requests = append(w.requests, request{kind: kindObject, name: name, pi: pi, obj: arm, text: "PROB OBJECT " + arm})
		}
	}
	w.script = shuffledRepeats(len(w.requests), sz.of(5, 1), r)
	return nil
}

// algebra_scan: the paper's Fig 7 operators on the tree lane.
func (w *workload) buildAlgebraScan(sz sizes, r, fixed *rand.Rand) error {
	depth := 5
	if sz.div > 1 {
		depth = 3
	}
	for i := 0; i < 4; i++ {
		lab := gen.SL
		if i >= 2 {
			lab = gen.FR
		}
		in, err := generate(depth, lab, i, r)
		if err != nil {
			return err
		}
		name := "alg" + strconv.Itoa(i)
		w.addInstance(name, in.PI)
		paths, objs, err := distinctSelections(in, fixed, 16)
		if err != nil {
			return err
		}
		for j := range paths {
			w.requests = append(w.requests,
				request{kind: kindProject, name: name, pi: in.PI, path: paths[j], text: "PROJECT " + paths[j].String()},
				request{kind: kindSelect, name: name, pi: in.PI, path: paths[j], obj: objs[j],
					text: "SELECT " + paths[j].String() + " = " + objs[j]})
		}
	}
	w.script = shuffledRepeats(len(w.requests), sz.of(2, 1), r)
	return nil
}

// ingest_mix: durable PUTs under fsync=always, each followed by point
// queries that cannot hit the cache because the version just changed.
func (w *workload) buildIngestMix(sz sizes, r, fixed *rand.Rand) error {
	w.durable = true
	w.fillCache = true
	w.cfg.ResultCacheBytes = 512 << 10
	w.cfg.StoreOptions = store.Options{Fsync: store.FsyncAlways}
	const names, queries = 8, 15
	depth := 4
	if sz.div > 1 {
		depth = 3
		w.cfg.ResultCacheBytes = 16 << 10
	}
	bodies := 32
	for b := 0; b < bodies; b++ {
		in, err := generate(depth, gen.FR, b, r)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := codec.EncodeText(&buf, in.PI); err != nil {
			return err
		}
		// The served instance is what the text codec decodes, so the
		// oracle and the traced replay work from that, not from in.PI.
		pi, err := codec.DecodeText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		name := "ing" + strconv.Itoa(b%names)
		w.requests = append(w.requests, request{kind: kindPut, name: name, pi: pi, body: buf.Bytes()})
		paths, objs, err := distinctSelections(in, fixed, queries)
		if err != nil {
			return err
		}
		for j := range paths {
			w.requests = append(w.requests, request{
				kind: kindPoint, name: name, pi: pi, path: paths[j], obj: objs[j],
				text: "PROB " + paths[j].String() + " = " + objs[j],
			})
		}
	}
	// One pass is the request table in order: PUT, then its queries.
	passes := sz.of(6, 1)
	for p := 0; p < passes; p++ {
		for i := range w.requests {
			w.script = append(w.script, i)
		}
	}
	return nil
}

// shuffledRepeats returns each of n indexes reps times, in seeded order.
func shuffledRepeats(n, reps int, r *rand.Rand) []int {
	out := make([]int, 0, n*reps)
	for k := 0; k < reps; k++ {
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// storeDir names the store directory of one set-up inside the work dir.
func storeDir(workdir string, n int) string {
	return filepath.Join(workdir, "store-"+strconv.Itoa(n))
}
