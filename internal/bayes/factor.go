// Package bayes is the Bayesian-network substrate the PXML paper leans on
// in Section 6 ("there is a mapping between a probabilistic instance and a
// Bayesian network ... inference in Bayesian networks has been studied
// extensively"): discrete variables, factors, and exact inference by
// variable elimination (bucket elimination, Dechter [8]). The Compile
// function realizes the paper's mapping — one variable per object whose
// states are the object's possible child sets (or leaf values) plus an
// "absent" state — and PathProb extends it with deterministic reachability
// variables so that probabilistic point queries are answered exactly on
// DAG-structured instances, where the Section 6 tree algorithms do not
// apply.
package bayes

import (
	"fmt"
	"slices"

	"pxml/internal/govern"
)

// Factor is a nonnegative function over a set of discrete variables,
// identified by integer ids. Values are stored row-major with the first
// variable varying slowest: the stride of variable i is the product of
// the cardinalities after it, and the kernels below walk vals by stride
// instead of decoding each cell into an assignment.
type Factor struct {
	vars []int
	card []int
	vals []float64
}

// NewFactor creates a zero factor over the given variables (ids must be
// distinct) with the given cardinalities.
func NewFactor(vars []int, card []int) *Factor {
	if len(vars) != len(card) {
		panic("bayes: vars/card length mismatch")
	}
	return (*arena)(nil).newFactor(vars, card)
}

// tableSize returns the number of cells of a table with the given
// cardinalities.
func tableSize(card []int) int {
	size := 1
	for _, c := range card {
		if c <= 0 {
			panic("bayes: nonpositive cardinality")
		}
		if size > MaxFactorEntries/c {
			// Refuse rather than overflow int and make() a garbage size.
			// Governed paths pre-check with cellsOf and never reach this.
			panic(fmt.Sprintf("bayes: factor over %d vars exceeds %d entries", len(card), MaxFactorEntries))
		}
		size *= c
	}
	return size
}

// Vars returns the factor's variable ids.
func (f *Factor) Vars() []int { return f.vars }

// Size returns the number of table entries.
func (f *Factor) Size() int { return len(f.vals) }

// index converts an assignment (parallel to f.vars) to a flat index.
func (f *Factor) index(assign []int) int {
	idx := 0
	for i, v := range assign {
		idx = idx*f.card[i] + v
	}
	return idx
}

// Set assigns the value at the given per-variable assignment.
func (f *Factor) Set(assign []int, v float64) { f.vals[f.index(assign)] = v }

// At reads the value at the given per-variable assignment.
func (f *Factor) At(assign []int) float64 { return f.vals[f.index(assign)] }

// EachAssignment invokes fn for every assignment of the factor's variables.
// The slice passed to fn is reused between calls.
func (f *Factor) EachAssignment(fn func(assign []int, v float64)) {
	assign := make([]int, len(f.vars))
	for i := range f.vals {
		fn(assign, f.vals[i])
		// Increment the mixed-radix counter.
		for j := len(assign) - 1; j >= 0; j-- {
			assign[j]++
			if assign[j] < f.card[j] {
				break
			}
			assign[j] = 0
		}
	}
}

// pos returns the position of variable v in f.vars, or -1.
func (f *Factor) pos(v int) int {
	for i, fv := range f.vars {
		if fv == v {
			return i
		}
	}
	return -1
}

// Multiply returns the product factor over the union of the variables:
// a's variables in order, then b's that a does not mention.
func Multiply(a, b *Factor) *Factor {
	out := new(Factor)
	mulInto(out, a, b)
	return out
}

// mulInto computes a×b into dst, reusing dst's backing arrays when they
// are large enough (the elimination loop multiplies every bucket into the
// same two scratch factors). Every output cell is written once: an
// odometer over the leading output variables keeps a's and b's flat
// offsets in step, and the last variable is a plain strided inner loop.
func mulInto(dst, a, b *Factor) {
	vars := append(dst.vars[:0], a.vars...)
	card := append(dst.card[:0], a.card...)
	for i, v := range b.vars {
		if a.pos(v) < 0 {
			vars = append(vars, v)
			card = append(card, b.card[i])
		}
	}
	n := len(vars)
	size := 1
	for _, c := range card {
		size *= c
	}
	vals := dst.vals
	if cap(vals) < size {
		vals = make([]float64, size)
	}
	vals = vals[:size]
	dst.vars, dst.card, dst.vals = vars, card, vals
	if n == 0 {
		vals[0] = a.vals[0] * b.vals[0]
		return
	}
	// sa[i], sb[i]: how far a's and b's flat offsets move per step of
	// output variable i (0 when the operand does not mention it).
	var stack [3 * 16]int
	scratch := stack[:]
	if 3*n > len(scratch) {
		scratch = make([]int, 3*n)
	}
	sa, sb, digit := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	for i := range digit {
		sa[i], sb[i], digit[i] = 0, 0, 0
	}
	for i, s := len(a.vars)-1, 1; i >= 0; i-- {
		sa[i] = s // a's variables lead the output in a's own order
		s *= a.card[i]
	}
	tail := n - 1 // b-only variables trail the output in b's order
	for i, s := len(b.vars)-1, 1; i >= 0; i-- {
		p := a.pos(b.vars[i])
		if p < 0 {
			p = tail
			tail--
		}
		sb[p] = s
		s *= b.card[i]
	}
	last := n - 1
	cl, sal, sbl := card[last], sa[last], sb[last]
	ia, ib := 0, 0
	for base := 0; base < size; base += cl {
		row := vals[base : base+cl]
		ja, jb := ia, ib
		for k := range row {
			row[k] = a.vals[ja] * b.vals[jb]
			ja += sal
			jb += sbl
		}
		for j := last - 1; j >= 0; j-- {
			digit[j]++
			ia += sa[j]
			ib += sb[j]
			if digit[j] < card[j] {
				break
			}
			ia -= sa[j] * card[j]
			ib -= sb[j] * card[j]
			digit[j] = 0
		}
	}
}

// without returns a zero factor over f's variables minus position pos,
// with the block sizes around pos: f's flat index is (h·c + s)·lo + l for
// h < hi, state s < c of the dropped variable, l < lo, and the result's is
// h·lo + l.
func (f *Factor) without(pos int) (out *Factor, hi, c, lo int) {
	n := len(f.vars) - 1
	ints := make([]int, 2*n)
	vars, card := ints[:n:n], ints[n:]
	copy(vars, f.vars[:pos])
	copy(vars[pos:], f.vars[pos+1:])
	copy(card, f.card[:pos])
	copy(card[pos:], f.card[pos+1:])
	hi, lo = 1, 1
	for _, k := range f.card[:pos] {
		hi *= k
	}
	for _, k := range f.card[pos+1:] {
		lo *= k
	}
	return &Factor{vars: vars, card: card, vals: make([]float64, hi*lo)}, hi, f.card[pos], lo
}

// clone returns a copy of f cut from a.
func (f *Factor) clone(a *arena) *Factor {
	c := a.newFactor(f.vars, f.card)
	copy(c.vals, f.vals)
	return c
}

// SumOut returns the factor with variable v marginalized away. Summing out
// a variable the factor does not mention returns a copy.
func (f *Factor) SumOut(v int) *Factor {
	pos := f.pos(v)
	if pos == -1 {
		return f.clone(nil)
	}
	out, hi, c, lo := f.without(pos)
	for h := 0; h < hi; h++ {
		row := out.vals[h*lo : (h+1)*lo]
		for s := 0; s < c; s++ {
			src := f.vals[(h*c+s)*lo:]
			for l := range row {
				row[l] += src[l]
			}
		}
	}
	return out
}

// Reduce returns the factor restricted to variable v taking state s: rows
// inconsistent with the evidence are dropped (the variable is removed).
func (f *Factor) Reduce(v, s int) *Factor {
	pos := f.pos(v)
	if pos == -1 {
		return f.clone(nil)
	}
	out, hi, c, lo := f.without(pos)
	for h := 0; h < hi; h++ {
		copy(out.vals[h*lo:(h+1)*lo], f.vals[(h*c+s)*lo:])
	}
	return out
}

// Scalar returns the value of a zero-variable factor.
func (f *Factor) Scalar() (float64, error) {
	if len(f.vars) != 0 {
		return 0, fmt.Errorf("bayes: factor over %v is not scalar", f.vars)
	}
	return f.vals[0], nil
}

// MaxFactorEntries is the hard cap on any factor table built during
// compilation or elimination, governed or not. It bounds a single
// allocation to 32 MiB of float64s regardless of configured budgets.
const MaxFactorEntries = 1 << 22

// cellsOf returns the table size for the given cardinalities as a
// float64, so width-bomb products that overflow int64 stay comparable.
func cellsOf(card []int) float64 {
	p := 1.0
	for _, c := range card {
		p *= float64(c)
	}
	return p
}

// productCells returns the table size Multiply(a, b) would allocate.
func productCells(a, b *Factor) float64 {
	cells := cellsOf(a.card)
	for i, v := range b.vars {
		if a.pos(v) < 0 {
			cells *= float64(b.card[i])
		}
	}
	return cells
}

// chargeCells refuses a table of the given size when it exceeds the hard
// cap or the query's budgets, BEFORE the caller allocates or fills it.
func chargeCells(g *govern.Governor, cells float64, what string) error {
	if cells > MaxFactorEntries {
		return fmt.Errorf("%w: %s needs %.4g entries (cap %d)", govern.ErrIntractable, what, cells, MaxFactorEntries)
	}
	if err := g.Alloc(int64(cells) * 8); err != nil {
		return err
	}
	return g.Step(int64(cells))
}

// chargeProduct is chargeCells for the table Multiply(a, b) would fill.
func chargeProduct(g *govern.Governor, a, b *Factor) error {
	return chargeCells(g, productCells(a, b), "intermediate factor")
}

// checkedFactor refuses an oversized factor table before a hands it out
// and charges the governor for the table it admits. CPT construction and
// the path-reachability augmentation build factors through this so a
// width-bomb fails with a typed error instead of an OOM.
func checkedFactor(g *govern.Governor, a *arena, vars []int, card []int) (*Factor, error) {
	if err := chargeCells(g, cellsOf(card), "factor"); err != nil {
		return nil, err
	}
	return a.newFactor(vars, card), nil
}

// EliminateAll multiplies the factors and sums out every variable in keep's
// complement, returning the joint factor over keep (nil keep = eliminate
// everything, yielding a scalar factor). Elimination order is greedy
// min-degree over the factor graph, weighted by cardinality. The factors
// are only read, and the result is the caller's.
func EliminateAll(factors []*Factor, keep map[int]bool) (*Factor, error) {
	w := acquire()
	defer w.release()
	out, err := w.eliminate(nil, factors, func(v int) bool { return keep[v] })
	if err != nil {
		return nil, err
	}
	return out.clone(nil), nil
}

// elimination is the state of one variable-elimination run. It lives in a
// pooled workspace and every run starts by resetting it; the factors it is
// given are only read.
//
// Inside a run a variable is its local slot, its position in ids: every
// factor in work — the inputs' headers and each τ — lists slots, not ids,
// and only the result is mapped back (DESIGN §35).
type elimination struct {
	// work holds a header per input factor, over the input's table but
	// with its variables in slots, followed by each bucket's summed-out
	// result; an entry is nil once it has been merged into a bucket.
	work []*Factor
	// ids lists the distinct variable ids in ascending order; slot i is
	// ids[i], and indexes adj, cost, mark and at.
	ids []int
	// adj[i] lists, ascending, the live factors that mention slot i. A
	// bucket's result replaces at least one factor in each list it joins,
	// so no list outgrows its initial length. The lists are carved from
	// backing, behind ids.
	adj     [][]int
	backing []int
	// cost[i] is the table size eliminating slot i would leave (the
	// product of its neighbours' cardinalities); -1 once it is
	// eliminated, or from the start when the caller keeps it.
	cost []float64
	// mark stamps the slots already counted while scoring or already in
	// the bucket product; at[i] is slot i's position in that product.
	// Both are cut from scratch.
	mark    []int
	at      []int
	scratch []int
	epoch   int
	// heap orders the candidates by (cost, slot). Re-scoring pushes a
	// fresh entry; entries whose cost is out of date are skipped when
	// popped.
	heap []candidate
	// The fused bucket pass (fuse): ops are the bucket's factors; uv and
	// uc the variables and cardinalities of the product they would
	// multiply to, in mulInto's order; strides each operand's stride
	// along each of them, operand after operand; offs each operand's
	// offset and strides along the eliminated and the last variable, then
	// the odometer's digits, while τ is written.
	ops     []*Factor
	uv, uc  []int
	strides []int
	offs    []int
	// prod are the two scratch factors the final multiply of the kept
	// factors alternates between. They outlive the run, so a warm
	// workspace multiplies in place.
	prod [2]Factor
}

type candidate struct {
	cost float64
	v    int // slot
}

func (c candidate) before(d candidate) bool {
	return c.cost < d.cost || (c.cost == d.cost && c.v < d.v)
}

// eliminate runs bucket elimination over factors, keeping the variables
// kept reports. The order is greedy by the size of the table each
// elimination leaves, ties going to the smaller variable id, so equal
// inputs give bit-identical outputs; after each bucket only the variables
// that shared a factor with the eliminated one are re-scored.
//
// Each τ is cut from w's arena and the result is one of w's factors (a
// product scratch, a τ, or an input's header over the input's table): the
// caller reads it before release.
func (w *workspace) eliminate(g *govern.Governor, factors []*Factor, kept func(v int) bool) (*Factor, error) {
	e := &w.elimination
	arity := 0
	for _, f := range factors {
		arity += len(f.vars)
	}
	ints := e.backing[:0]
	for _, f := range factors {
		ints = append(ints, f.vars...)
	}
	slices.Sort(ints)
	n := 0
	for i, v := range ints {
		if i == 0 || v != ints[n-1] {
			ints[n] = v
			n++
		}
	}
	if cap(ints) < n+arity {
		ints = append(ints[:n], make([]int, arity)...)
	}
	e.backing = ints[:0]
	e.ids = ints[:n:n]
	if cap(e.scratch) < 3*n {
		e.scratch = make([]int, 3*n)
	}
	scratch := e.scratch[:3*n]
	clear(scratch)
	e.mark, e.at, e.epoch = scratch[:n:n], scratch[n:2*n:2*n], 0
	degree := scratch[2*n:]
	// Each input once into slots, in a header of its own.
	e.work = e.work[:0]
	slots := w.arena.ints(arity)
	for _, f := range factors {
		vars := slots[:len(f.vars):len(f.vars)]
		slots = slots[len(f.vars):]
		for k, v := range f.vars {
			i, _ := slices.BinarySearch(e.ids, v)
			vars[k] = i
			degree[i]++
		}
		e.work = append(e.work, w.arena.factor(vars, f.card, f.vals))
	}
	// Adjacency in one backing array: count, carve, fill.
	backing := ints[n:n]
	e.adj = e.adj[:0]
	for _, d := range degree {
		e.adj = append(e.adj, backing[len(backing):len(backing):len(backing)+d])
		backing = backing[:len(backing)+d]
	}
	for fi, f := range e.work {
		for _, i := range f.vars {
			e.adj[i] = append(e.adj[i], fi)
		}
	}
	e.cost = slices.Grow(e.cost[:0], n)[:n]
	e.heap = e.heap[:0]
	for i, v := range e.ids {
		if kept(v) {
			e.cost[i] = -1
			continue
		}
		e.rescore(i)
	}
	for len(e.heap) > 0 {
		c := e.pop()
		if c.cost != e.cost[c.v] {
			continue // re-scored since, or already eliminated
		}
		if err := g.Err(); err != nil {
			return nil, err
		}
		if err := e.sumOut(g, &w.arena, c.v); err != nil {
			return nil, err
		}
	}
	// Multiply what is left: factors over kept variables and constants.
	var out *Factor
	k := 0
	for _, f := range e.work {
		switch {
		case f == nil:
		case out == nil:
			out = f
		default:
			if err := chargeProduct(g, out, f); err != nil {
				return nil, err
			}
			dst := &e.prod[k%2]
			k++
			mulInto(dst, out, f)
			out = dst
		}
	}
	if out == nil {
		out = w.arena.newFactor(nil, nil)
		out.vals[0] = 1
	}
	// Every header in work is w's, so the result's slots become ids in
	// place.
	for k, i := range out.vars {
		out.vars[k] = e.ids[i]
	}
	return out, nil
}

// rescore recomputes slot i's elimination cost from the live factors that
// mention it and queues it under the new cost.
func (e *elimination) rescore(i int) {
	e.epoch++
	cost := 1.0
	for _, fi := range e.adj[i] {
		f := e.work[fi]
		for k, j := range f.vars {
			if j != i && e.mark[j] != e.epoch {
				e.mark[j] = e.epoch
				cost *= float64(f.card[k])
			}
		}
	}
	e.cost[i] = cost
	e.push(candidate{cost, i})
}

// sumOut eliminates slot i: it sums the product of the bucket — every live
// factor that mentions i, in creation order — over i's states into a τ cut
// from a, and re-scores the slots τ touches.
func (e *elimination) sumOut(g *govern.Governor, a *arena, i int) error {
	e.cost[i] = -1
	bucket := e.adj[i]
	if len(bucket) == 0 {
		return nil
	}
	ops := e.ops[:0]
	for _, fi := range bucket {
		ops = append(ops, e.work[fi])
		e.work[fi] = nil
	}
	e.ops = ops
	tau, err := e.fuse(g, a, i)
	if err != nil {
		return err
	}
	ti := len(e.work)
	e.work = append(e.work, tau)
	for _, j := range tau.vars {
		live := e.adj[j][:0]
		for _, fi := range e.adj[j] {
			if e.work[fi] != nil {
				live = append(live, fi)
			}
		}
		e.adj[j] = append(live, ti)
		if e.cost[j] >= 0 {
			e.rescore(j)
		}
	}
	return nil
}

// fuse returns τ, the product of the operands e.ops summed over slot i, cut
// from a; e.mark and e.at must cover every slot the operands mention. The
// product is never built: each τ cell multiplies the operands left to right
// and adds those products in ascending state order from 0, which is what
// mulInto into a scratch, operand after operand, followed by
// SumOut computes, bit for bit. Every product is rounded to float64
// before it is added, so no platform fuses the multiply into the sum. The
// governor is charged the tables that chain would fill, in its order,
// before any cell is written.
//
// τ's variables are the chain's product's without i, in order; an
// odometer walks all but the last of them, and each row of the last is a
// strided loop over the operands' tables.
func (e *elimination) fuse(g *govern.Governor, a *arena, i int) (*Factor, error) {
	ops := e.ops
	// The product's variables: the first operand's, then each later
	// operand's new ones in its own order.
	e.epoch++
	uv, uc := e.uv[:0], e.uc[:0]
	cells := 1.0
	for k, f := range ops {
		for d, j := range f.vars {
			if e.mark[j] != e.epoch {
				e.mark[j] = e.epoch
				e.at[j] = len(uv)
				uv = append(uv, j)
				uc = append(uc, f.card[d])
				cells *= float64(f.card[d])
			}
		}
		if k > 0 {
			if err := chargeCells(g, cells, "intermediate factor"); err != nil {
				return nil, err
			}
		}
	}
	e.uv, e.uc = uv, uc
	n, m, p := len(uv), len(ops), e.at[i]
	strides := slices.Grow(e.strides[:0], m*n)[:m*n]
	clear(strides)
	e.strides = strides
	for k, f := range ops {
		st := strides[k*n : (k+1)*n]
		s := 1
		for d := len(f.vars) - 1; d >= 0; d-- {
			st[e.at[f.vars[d]]] = s
			s *= f.card[d]
		}
	}
	nt := n - 1
	ints := a.ints(2 * nt)
	vars, card := ints[:nt:nt], ints[nt:]
	copy(vars, uv[:p])
	copy(vars[p:], uv[p+1:])
	copy(card, uc[:p])
	copy(card[p:], uc[p+1:])
	size := 1
	for _, c := range card {
		size *= c
	}
	vals := cut(&a.vals, size) // every cell is written below
	tau := a.factor(vars, card, vals)
	c := uc[p]
	// The last τ variable's position in the product; a scalar τ is one
	// row of one cell.
	last, cl := n-1, 1
	if last == p {
		last--
	}
	if last >= 0 {
		cl = uc[last]
	}
	// Per operand: its flat offset at the row's first cell, its strides
	// along p and along the last variable (0 for a scalar τ's row), then
	// the odometer's digits.
	offs := slices.Grow(e.offs[:0], 3*m+n)[:3*m+n]
	clear(offs)
	e.offs = offs
	off, sp, sl, digit := offs[:m], offs[m:2*m], offs[2*m:3*m], offs[3*m:]
	for k := range ops {
		sp[k] = strides[k*n+p]
		if last >= 0 {
			sl[k] = strides[k*n+last]
		}
	}
	if m == 2 {
		// Most buckets of a diamond DAG's queries are two factors.
		av, sap, sal := ops[0].vals, sp[0], sl[0]
		bv, sbp, sbl := ops[1].vals, sp[1], sl[1]
		for base := 0; base < size; base += cl {
			ja, jb := off[0], off[1]
			for l := base; l < base+cl; l++ {
				sum, ka, kb := 0.0, ja, jb
				for s := 0; s < c; s++ {
					sum += float64(av[ka] * bv[kb])
					ka += sap
					kb += sbp
				}
				vals[l] = sum
				ja += sal
				jb += sbl
			}
			e.step(off, digit, p, last)
		}
		return tau, nil
	}
	for base := 0; base < size; base += cl {
		for l := 0; l < cl; l++ {
			sum := 0.0
			for s := 0; s < c; s++ {
				x := ops[0].vals[off[0]+s*sp[0]+l*sl[0]]
				for k := 1; k < m; k++ {
					x = float64(x * ops[k].vals[off[k]+s*sp[k]+l*sl[k]])
				}
				sum += x
			}
			vals[base+l] = sum
		}
		e.step(off, digit, p, last)
	}
	return tau, nil
}

// step advances the odometer over the product positions other than p and
// last by one, moving each operand's offset in off along.
func (e *elimination) step(off, digit []int, p, last int) {
	n := len(e.uv)
	for j := last - 1; j >= 0; j-- {
		if j == p {
			continue
		}
		digit[j]++
		for k := range off {
			off[k] += e.strides[k*n+j]
		}
		if digit[j] < e.uc[j] {
			return
		}
		for k := range off {
			off[k] -= e.strides[k*n+j] * e.uc[j]
		}
		digit[j] = 0
	}
}

func (e *elimination) push(c candidate) {
	h := append(e.heap, c)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

func (e *elimination) pop() candidate {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		least := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < last && h[child].before(h[least]) {
				least = child
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	e.heap = h
	return top
}
