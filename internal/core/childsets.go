package core

import (
	"sync/atomic"

	"pxml/internal/graph"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// ChildSets is the bitset view of one instance version's OPFs (DESIGN §36).
// For an object with an OPF it holds each entry's child set, in OPF.Each's
// order, as ⌈|row|/64⌉ words over the object's row of successors in the
// weak instance graph, which is in child-id order: bit s of word s/64 is
// the s-th child, the slot graph.Arc and pathexpr.Kid carry. The tree
// lane's readers test membership of a child with one bit instead of
// merging names.
//
// An object's row of words is read off its OPF when a reader asks for it,
// and kept for every later reader of the version from its second read on.
// So a query pays only for the objects it visits, after the governor step
// it charges for each, and a row Each reads once is never kept (Has keeps
// a row on its first read). A view is safe for concurrent readers.
type ChildSets struct {
	// interp is the interpretation the view was read from, and whose OPFs
	// it hands out: an instance whose own is another, or changed, does not
	// use it.
	interp *localInterp
	g      *graph.Graph
	// vertices is the number of g's vertices: an object numbered past it
	// has no row of successors.
	vertices int32
	// rows holds the rows by object number, in chunks of rowChunk numbers
	// made when one of them is first read.
	rows []atomic.Pointer[[rowChunk]atomic.Pointer[childRow]]
	n    int32 // object numbers
}

// rowChunk is how many object numbers share one chunk of row pointers.
const rowChunk = 32

// childRow is one object's entries as bits: entry i's set is
// words[i*width : (i+1)*width].
type childRow struct {
	width int32
	words []uint64
}

// ChildSets returns the bitset view of pi's OPFs, starting it on the first
// call for this version beside the memoized graph whose rows it indexes.
// Starting one reads no OPF: it is one nil chunk pointer per rowChunk
// object numbers. The view is dropped with the graph, by any structural
// mutation, and by SetOPF; an Overlay starts its own.
func (pi *ProbInstance) ChildSets() *ChildSets {
	w := pi.WeakInstance
	w.graphMu.Lock()
	defer w.graphMu.Unlock()
	if cs := w.memo.childSets; cs != nil && cs.interp == pi.interp {
		return cs
	}
	cs := &ChildSets{
		interp:   pi.interp,
		g:        w.graphLocked(),
		vertices: int32(len(w.memo.rank)),
		rows:     make([]atomic.Pointer[[rowChunk]atomic.Pointer[childRow]], (len(w.names)+rowChunk-1)/rowChunk),
		n:        int32(len(w.names)),
	}
	w.memo.childSets = cs
	return cs
}

// dropChildSets forgets the view after an OPF is assigned.
func (w *WeakInstance) dropChildSets() {
	w.graphMu.Lock()
	w.memo.childSets = nil
	w.graphMu.Unlock()
}

// row returns the kept row of object number v, which has an OPF, reading
// and keeping it if no reader has kept it yet.
func (cs *ChildSets) row(v int32) *childRow {
	at := cs.rowAt(v)
	if r := at.Load(); r != nil && r != once {
		return r
	}
	return publish(at, cs.readRow(v, cs.interp.opf.get(v), true, func([]uint64, float64) {}))
}

// once stands in a row's place after its first reader, which read its
// bits without keeping them: a version that gets one query allocates no
// row, and the second reader keeps the row for every later one.
var once = new(childRow)

// publish makes r the row at at, unless a reader racing to keep the same
// row kept one first; it returns the row kept.
func publish(at *atomic.Pointer[childRow], r *childRow) *childRow {
	for {
		old := at.Load()
		if old != nil && old != once {
			return old
		}
		if at.CompareAndSwap(old, r) {
			return r
		}
	}
}

// rowAt returns where the row of object number v is published, making its
// chunk if no row of the chunk has been read.
func (cs *ChildSets) rowAt(v int32) *atomic.Pointer[childRow] {
	top := &cs.rows[v/rowChunk]
	c := top.Load()
	if c == nil {
		c = new([rowChunk]atomic.Pointer[childRow])
		if !top.CompareAndSwap(nil, c) {
			c = top.Load()
		}
	}
	return &c[v%rowChunk]
}

// readRow reads the bits of v's OPF off its entries, handing each entry to
// fn as soon as its bits are read. With keep it returns the row; without,
// each entry's bits are read into one buffer reused for every entry, and
// nil is returned. Each entry's bits come from one walk of the row's names
// beside its canonical set, both in id order: each member is found by
// equality from where the one before it was, which is one merge, since a
// member is in the row. A member outside the row, which only an instance
// failing validation has, gets no bit and leaves the walk where it was.
func (cs *ChildSets) readRow(v int32, opf *prob.OPF, keep bool, fn func(bits []uint64, p float64)) *childRow {
	var names []string
	if v < cs.vertices {
		names = cs.g.ChildNames(v)
	}
	width := int32(len(names)+63) / 64
	var r *childRow
	var words []uint64
	if keep {
		r = &childRow{width: width, words: make([]uint64, opf.Len()*int(width))}
		words = r.words
	} else {
		words = make([]uint64, width)
	}
	at := int32(0)
	opf.Each(func(c sets.Set, p float64) {
		bits := words[at : at+width : at+width]
		if !keep {
			clear(bits)
		}
		j := 0
		for _, m := range c {
			k := j
			for k < len(names) && names[k] != m {
				k++
			}
			if k < len(names) {
				bits[k>>6] |= 1 << (k & 63)
				j = k + 1
			}
		}
		fn(bits, p)
		if keep {
			at += width
		}
	})
	return r
}

// Each calls fn for every entry of the OPF of object number v, in
// OPF.Each's order, with its child set as bits over v's row and its
// probability. It calls fn for nothing when v has no OPF. bits is a view
// into the view: fn must not keep or change it.
func (cs *ChildSets) Each(v int32, fn func(bits []uint64, p float64)) {
	opf := cs.OPF(v)
	if opf == nil {
		return
	}
	at := cs.rowAt(v)
	r := at.Load()
	switch {
	case r == nil && at.CompareAndSwap(nil, once):
		cs.readRow(v, opf, false, fn)
		return
	case r == nil || r == once:
		publish(at, cs.readRow(v, opf, true, fn))
		return
	}
	i := int32(0)
	opf.Each(func(_ sets.Set, p float64) {
		fn(r.words[i:i+r.width:i+r.width], p)
		i += r.width
	})
}

// Has reports whether entry i of the OPF of object number v, in OPF.Each's
// order, holds the child in slot of v's row. A reader that tests entries
// one at a time has no pass to hand them out in, so Has keeps the row on
// its first read.
func (cs *ChildSets) Has(v int32, i int, slot int32) bool {
	r := cs.row(v)
	return r.words[int32(i)*r.width+slot>>6]>>(slot&63)&1 != 0
}

// OPF returns the OPF of object number v the view was read from; nil when
// v has none.
func (cs *ChildSets) OPF(v int32) *prob.OPF {
	if v >= cs.n {
		return nil
	}
	return cs.interp.opf.get(v)
}
