package bayes

import "sync"

// workspace is everything one BN-lane query needs besides the shared
// Network: the elimination state, the arena the query's factors are cut
// from, and the scratch of relevance pruning and of the path augmentation.
// Queries take one from workspaces and give it back when they have read
// their answer, so a warm query allocates nothing here (DESIGN §26).
//
// Every factor a query makes — each τ, each overlay or evidence factor and
// the product it answers from — belongs to the workspace and is only valid
// until release; EliminateAll copies its result out.
type workspace struct {
	elimination
	arena arena

	// seeds is the stack relevant walks the ancestral closure with, found
	// the variables it reached and in the CPTs it selected; seen marks the
	// variables already reached (and, in pathProbOn, the objects a level
	// already lists).
	seeds []int
	found []int
	in    []*Factor
	seen  varSet
	// extra holds the query's own factors: the path augmentation's or the
	// evidence indicators.
	extra []*Factor

	// pathProbOn's backward walk: via lists, level by level from the
	// target up, each object with the run of par holding the parents it is
	// reached from by that level's label; level[i] is level i's run of
	// via. reach[i&1] maps an object of level i to its reachability
	// variable R_{i,x} while level i+1 is built. terms and targets are the
	// forward pass's OR operands (ProbExistsCtx's too) and the matched
	// objects.
	via     []viaEntry
	par     []int
	level   []span
	reach   [2]varMap
	terms   []int
	targets []int
}

// viaEntry is object variable x with its parents par[lo:hi].
type viaEntry struct{ x, lo, hi int }

// span is a half-open run [lo, hi) of some slice.
type span struct{ lo, hi int }

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// maxPooledWords bounds what a workspace may hold when it goes back to
// the pool, in 8-byte words (a table cell, an int; a Factor header is
// nine): one query near MaxFactorEntries must not stay resident behind the
// small ones that follow it.
const maxPooledWords = 1 << 17

func acquire() *workspace { return workspaces.Get().(*workspace) }

// release hands w back to the pool; the factors it gave out are void.
func (w *workspace) release() {
	w.reset()
	workspaces.Put(w)
}

// reset takes back everything w gave out and drops its references into
// networks, keeping the room it grew to — or none of it, when the query
// grew it past maxPooledWords.
func (w *workspace) reset() {
	clear(w.work)
	clear(w.ops)
	clear(w.in)
	clear(w.extra)
	w.work, w.ops, w.in, w.extra = w.work[:0], w.ops[:0], w.in[:0], w.extra[:0]
	w.arena.reset()
	if w.words() > maxPooledWords {
		*w = workspace{}
	}
}

// words is the room w holds, in 8-byte words.
func (w *workspace) words() int {
	n := cap(w.work) + cap(w.ids) + cap(w.backing) + 3*cap(w.adj) + cap(w.cost) +
		cap(w.scratch) + 2*cap(w.heap) +
		cap(w.uv) + cap(w.uc) + cap(w.strides) + cap(w.offs) + cap(w.ops) +
		cap(w.arena.vals) + cap(w.arena.idx) + 9*cap(w.arena.hdr) +
		cap(w.seeds) + cap(w.found) + cap(w.in) + cap(w.extra) + cap(w.seen.stamp)/2 +
		3*cap(w.via) + cap(w.par) + 2*cap(w.level) + cap(w.terms) + cap(w.targets)
	for i := range w.prod {
		n += cap(w.prod[i].vars) + cap(w.prod[i].card) + cap(w.prod[i].vals)
	}
	for i := range w.reach {
		n += cap(w.reach[i].keys.stamp)/2 + cap(w.reach[i].val)
	}
	return n
}

// arena hands out the storage of one query's factors — headers, vars and
// card, tables — from three slices kept between queries. A cut never moves
// an earlier one: a full slice is replaced by one twice its size and lives
// on as long as the factors cut from it. A nil *arena allocates from the
// heap, which is what the exported constructors use.
type arena struct {
	vals []float64
	idx  []int
	hdr  []Factor
}

// cut extends *buf by n elements and returns them, switching *buf to a
// larger backing array when the current one is full.
func cut[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(2*cap(b), n, 64))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// floats returns a zeroed table of n cells.
func (a *arena) floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	t := cut(&a.vals, n)
	clear(t)
	return t
}

// ints returns n ints for the caller to fill.
func (a *arena) ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return cut(&a.idx, n)
}

// factor returns a header over the given storage.
func (a *arena) factor(vars, card []int, vals []float64) *Factor {
	if a == nil {
		return &Factor{vars: vars, card: card, vals: vals}
	}
	f := &cut(&a.hdr, 1)[0]
	*f = Factor{vars: vars, card: card, vals: vals}
	return f
}

// newFactor is NewFactor with the factor's storage cut from a.
func (a *arena) newFactor(vars []int, card []int) *Factor {
	size := tableSize(card)
	n := len(vars)
	ints := a.ints(2 * n)
	copy(ints, vars)
	copy(ints[n:], card)
	return a.factor(ints[:n:n], ints[n:], a.floats(size))
}

// reset takes back every cut; the headers are zeroed so that none keeps a
// replaced backing array alive.
func (a *arena) reset() {
	clear(a.hdr)
	a.vals, a.idx, a.hdr = a.vals[:0], a.idx[:0], a.hdr[:0]
}

// varSet is a set of variable ids that empties in O(1): v is in it when
// stamp[v] equals tick.
type varSet struct {
	tick  uint32
	stamp []uint32
}

// reset empties s and makes room for ids below n.
func (s *varSet) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.tick++
	if s.tick == 0 {
		clear(s.stamp)
		s.tick = 1
	}
}

// add puts v in s and reports whether it was not there before.
func (s *varSet) add(v int) bool {
	if s.stamp[v] == s.tick {
		return false
	}
	s.stamp[v] = s.tick
	return true
}

// varMap maps variable ids to ints and, like varSet, empties in O(1).
type varMap struct {
	keys varSet
	val  []int
}

func (m *varMap) reset(n int) {
	m.keys.reset(n)
	if len(m.val) < n {
		m.val = append(m.val, make([]int, n-len(m.val))...)
	}
}

func (m *varMap) put(k, v int) {
	m.keys.add(k)
	m.val[k] = v
}

func (m *varMap) get(k int) (int, bool) {
	if m.keys.stamp[k] != m.keys.tick {
		return 0, false
	}
	return m.val[k], true
}
