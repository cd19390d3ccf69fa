package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"

	"pxml/internal/core"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// FormatBinary identifies the compact binary encoding. The wire layout is
// a single length+CRC32-framed record:
//
//	magic   "PXB1" (4 bytes)
//	length  uvarint — size of the body that follows
//	body    string table + instance structure (see below)
//	crc     CRC-32 (IEEE) of the body, little endian
//
// The body interns every identifier, label, type name and value in a
// sorted string table and refers to them by uvarint index, so repeated
// identifiers (the dominant content of the text encoding) cost one or two
// bytes each:
//
//	uvarint #strings, then per string: uvarint length + bytes
//	uvarint root string index
//	uvarint #types, then per type: name index, uvarint #values, value indexes
//	uvarint #objects, then per object:
//	  id index
//	  uvarint type reference (0 = untyped, else 1 + position in type list)
//	  uvarint default-value reference (0 = none, else 1 + string index)
//	  uvarint #labels, then per label:
//	    label index, varint card min, varint card max,
//	    uvarint #children, child indexes
//	  uvarint #OPF entries, then per entry:
//	    8-byte little-endian float64, uvarint set size, member indexes
//	  uvarint #VPF entries, then per entry:
//	    8-byte little-endian float64, value index
//
// Encoding is deterministic (table sorted, objects/labels/entries in
// canonical order) and round-trips with the text and JSON codecs: for any
// instance, text→binary→text reproduces the same bytes.
const FormatBinary = "pxml-bin/1"

var binaryMagic = [4]byte{'P', 'X', 'B', '1'}

// maxBinaryBody bounds the body length DecodeBinary accepts, guarding
// against absurd length prefixes on corrupt input.
const maxBinaryBody = 1 << 30

// encodeBufPool recycles record-sized scratch buffers across encodes, so
// steady-state serialization (the WAL framing path re-encodes on every
// Put) allocates nothing per record beyond the caller's destination.
var encodeBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// maxPooledEncodeBuf caps what goes back in the pool: one enormous
// instance must not pin its scratch buffer forever.
const maxPooledEncodeBuf = 4 << 20

// recycleEncodeBuf returns a scratch buffer to the pool unless it grew
// past the retention cap.
func recycleEncodeBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledEncodeBuf {
		*bp = b[:0]
		encodeBufPool.Put(bp)
	}
}

// AppendBinary appends the binary encoding of pi to buf and returns the
// extended slice. It is the allocation-friendly core of EncodeBinary,
// usable directly by storage layers that frame records themselves.
func AppendBinary(buf []byte, pi *core.ProbInstance) []byte {
	buf = append(buf, binaryMagic[:]...)
	// The body is built separately (in pooled scratch) so its uvarint
	// length can precede it.
	bp := encodeBufPool.Get().(*[]byte)
	body := appendBinaryBody((*bp)[:0], pi)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	recycleEncodeBuf(bp, body)
	return buf
}

// EncodeBinary writes the instance in the framed binary encoding.
func EncodeBinary(w io.Writer, pi *core.ProbInstance) error {
	bp := encodeBufPool.Get().(*[]byte)
	rec := AppendBinary((*bp)[:0], pi)
	_, err := w.Write(rec)
	recycleEncodeBuf(bp, rec)
	return err
}

// appendBinaryBody serializes the instance structure (everything between
// the length prefix and the CRC).
func appendBinaryBody(buf []byte, pi *core.ProbInstance) []byte {
	// Intern every string the instance mentions. Sizing by object count
	// (ids dominate the table; labels and values add a fraction) avoids
	// rehash churn on large instances.
	est := pi.NumObjects()*2 + 16
	idx := make(map[string]uint64, est)
	strs := make([]string, 0, est)
	intern := func(s string) {
		if _, ok := idx[s]; !ok {
			idx[s] = 0 // its table position, once the table is sorted
			strs = append(strs, s)
		}
	}
	objs := pi.Objects()
	labels := make([][]model.Label, len(objs))
	intern(pi.Root())
	for i, o := range objs {
		intern(o)
		labels[i] = pi.Labels(o)
		for _, l := range labels[i] {
			intern(l)
			for _, c := range pi.LCh(o, l) {
				intern(c)
			}
		}
		if v, ok := pi.DefaultValue(o); ok {
			intern(v)
		}
		if w := pi.OPF(o); w != nil {
			w.Each(func(c sets.Set, _ float64) {
				for _, m := range c {
					intern(m)
				}
			})
		}
		if v := pi.VPF(o); v != nil {
			v.Each(func(val string, _ float64) { intern(val) })
		}
	}
	var typeNames []string
	for name, t := range pi.Types() {
		typeNames = append(typeNames, name)
		intern(t.Name)
		for _, v := range t.Domain {
			intern(v)
		}
	}
	sort.Strings(typeNames)
	typePos := make(map[model.TypeName]uint64, len(typeNames))
	for i, name := range typeNames {
		typePos[name] = uint64(i)
	}
	sort.Strings(strs)
	for i, s := range strs {
		idx[s] = uint64(i)
	}

	buf = binary.AppendUvarint(buf, uint64(len(strs)))
	for _, s := range strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, idx[pi.Root()])

	buf = binary.AppendUvarint(buf, uint64(len(typeNames)))
	for _, name := range typeNames {
		t := pi.Types()[name]
		buf = binary.AppendUvarint(buf, idx[t.Name])
		buf = binary.AppendUvarint(buf, uint64(len(t.Domain)))
		for _, v := range t.Domain {
			buf = binary.AppendUvarint(buf, idx[v])
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(objs)))
	for i, o := range objs {
		buf = binary.AppendUvarint(buf, idx[o])
		if t, ok := pi.TypeOf(o); ok {
			buf = binary.AppendUvarint(buf, typePos[t.Name]+1)
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
		if v, ok := pi.DefaultValue(o); ok {
			buf = binary.AppendUvarint(buf, idx[v]+1)
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(labels[i])))
		for _, l := range labels[i] {
			buf = binary.AppendUvarint(buf, idx[l])
			iv := pi.Card(o, l)
			buf = binary.AppendVarint(buf, int64(iv.Min))
			buf = binary.AppendVarint(buf, int64(iv.Max))
			cs := pi.LCh(o, l)
			buf = binary.AppendUvarint(buf, uint64(cs.Len()))
			for _, c := range cs {
				buf = binary.AppendUvarint(buf, idx[c])
			}
		}
		if w := pi.OPF(o); w != nil {
			buf = binary.AppendUvarint(buf, uint64(w.Len()))
			w.Each(func(c sets.Set, p float64) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
				buf = binary.AppendUvarint(buf, uint64(c.Len()))
				for _, m := range c {
					buf = binary.AppendUvarint(buf, idx[m])
				}
			})
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
		if v := pi.VPF(o); v != nil {
			buf = binary.AppendUvarint(buf, uint64(v.Len()))
			v.Each(func(val string, p float64) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
				buf = binary.AppendUvarint(buf, idx[val])
			})
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
	}
	return buf
}

// DecodeBinary reads an instance from the framed binary encoding. It
// verifies the length prefix and CRC before interpreting the body, so a
// bit flip anywhere in the record is detected rather than decoded.
func DecodeBinary(r io.Reader) (*core.ProbInstance, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBinaryBody+64))
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return DecodeBinaryBytes(data)
}

// DecodeBinaryBytes is DecodeBinary over an in-memory record. The record
// must contain exactly one framed instance with no trailing bytes.
func DecodeBinaryBytes(data []byte) (*core.ProbInstance, error) {
	return DecodeBinaryBytesInterned(data, nil)
}

// DecodeBinaryBytesInterned is DecodeBinaryBytes with an optional string
// interner. With in != nil every decoded string is routed through the
// interner, so labels and identifiers repeated across records (the
// dominant content of a store's snapshot) are allocated once and shared;
// nothing in the returned instance references data, making this the
// decode mode for memory-mapped inputs whose lifetime is shorter than
// the instance's.
func DecodeBinaryBytesInterned(data []byte, in *Interner) (*core.ProbInstance, error) {
	body, err := binaryBody(data)
	if err != nil {
		return nil, err
	}
	return decodeBinaryBody(body, in)
}

// CheckBinary verifies the record frame — magic, length prefix, CRC —
// without decoding the body. It is the cheap, allocation-free integrity
// gate the store's lazy load runs at open time, deferring the expensive
// structural decode to first touch.
func CheckBinary(data []byte) error {
	_, err := binaryBody(data)
	return err
}

// binaryBody validates the record frame and returns the body bytes.
func binaryBody(data []byte) ([]byte, error) {
	if len(data) < len(binaryMagic) || string(data[:4]) != string(binaryMagic[:]) {
		return nil, fmt.Errorf("codec: not a %s record (bad magic)", FormatBinary)
	}
	n, k := binary.Uvarint(data[4:])
	if k <= 0 || n > maxBinaryBody {
		return nil, fmt.Errorf("codec: bad binary length prefix")
	}
	off := 4 + k
	if uint64(len(data)-off) < n+4 {
		return nil, fmt.Errorf("codec: truncated binary record (want %d body bytes, have %d)", n, len(data)-off)
	}
	if uint64(len(data)-off) > n+4 {
		return nil, fmt.Errorf("codec: %d trailing bytes after binary record", uint64(len(data)-off)-n-4)
	}
	body := data[off : off+int(n)]
	want := binary.LittleEndian.Uint32(data[off+int(n):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("codec: binary record CRC mismatch (got %08x, want %08x)", got, want)
	}
	return body, nil
}

// bcursor is a bounds-checked reader over the record body.
type bcursor struct {
	b   []byte
	off int
}

func (c *bcursor) remaining() int { return len(c.b) - c.off }

func (c *bcursor) uvarint() (uint64, error) {
	// Fast path: single-byte varints dominate real records (string-table
	// indexes, small counts), and skipping the generic decoder keeps this
	// inlinable at every call site.
	if c.off < len(c.b) {
		if x := c.b[c.off]; x < 0x80 {
			c.off++
			return uint64(x), nil
		}
	}
	return c.uvarintSlow()
}

func (c *bcursor) uvarintSlow() (uint64, error) {
	v, k := binary.Uvarint(c.b[c.off:])
	if k <= 0 {
		return 0, fmt.Errorf("codec: truncated varint at byte %d", c.off)
	}
	c.off += k
	return v, nil
}

// count reads a uvarint that counts upcoming elements of at least minSize
// bytes each, rejecting counts the remaining input cannot possibly hold
// (so corrupt headers cannot force huge allocations).
func (c *bcursor) count(minSize int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if minSize < 1 {
		minSize = 1
	}
	if v > uint64(c.remaining()/minSize) {
		return 0, fmt.Errorf("codec: count %d exceeds remaining input at byte %d", v, c.off)
	}
	return int(v), nil
}

func (c *bcursor) varint() (int64, error) {
	v, k := binary.Varint(c.b[c.off:])
	if k <= 0 {
		return 0, fmt.Errorf("codec: truncated varint at byte %d", c.off)
	}
	c.off += k
	return v, nil
}

func (c *bcursor) f64() (float64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("codec: truncated float at byte %d", c.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

func (c *bcursor) str(table []string) (string, error) {
	i, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if i >= uint64(len(table)) {
		return "", fmt.Errorf("codec: string index %d out of range (table size %d)", i, len(table))
	}
	return table[i], nil
}

// arena hands out sub-slices from shared slabs, collapsing the thousands of
// tiny allocations a large record needs (member lists, entry lists) into a
// few big ones. Callers adopt the slices (sets and sealed local functions
// are immutable by convention), so slabs are never reused; they double in
// size up to maxArenaSlab, so a small instance does not pin a large slab.
type arena[T any] struct {
	slab []T
	next int // size of the next slab
}

const (
	minArenaSlab = 1 << 8
	maxArenaSlab = 1 << 12
)

// take returns n zeroed elements with no spare capacity.
func (a *arena[T]) take(n int) []T {
	if n > cap(a.slab)-len(a.slab) {
		a.next = min(max(2*a.next, minArenaSlab), maxArenaSlab)
		a.slab = make([]T, 0, max(a.next, n))
	}
	out := a.slab[len(a.slab) : len(a.slab)+n : len(a.slab)+n]
	a.slab = a.slab[:len(a.slab)+n]
	return out
}

func decodeBinaryBody(body []byte, in *Interner) (*core.ProbInstance, error) {
	c := &bcursor{b: body}
	nStrs, err := c.count(1)
	if err != nil {
		return nil, err
	}
	table := make([]string, nStrs)
	if in != nil {
		// Interned mode: each table entry is resolved through the
		// interner, so entries repeated across records share one heap
		// string and nothing retains body.
		for i := range table {
			l, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if l > uint64(c.remaining()) {
				return nil, fmt.Errorf("codec: string length %d exceeds remaining input", l)
			}
			table[i] = in.Intern(body[c.off : c.off+int(l)])
			c.off += int(l)
		}
	} else {
		// One string conversion for the whole table region: entries are
		// substrings of it, so the table costs one allocation instead of
		// one per string (the table is the bulk of a large record).
		bodyStr := string(body)
		for i := range table {
			l, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if l > uint64(c.remaining()) {
				return nil, fmt.Errorf("codec: string length %d exceeds remaining input", l)
			}
			table[i] = bodyStr[c.off : c.off+int(l)]
			c.off += int(l)
		}
	}
	root, err := c.str(table)
	if err != nil {
		return nil, err
	}
	// Only a body holding U+001F at all has its object ids looked at for it.
	unitSep := bytes.IndexByte(body, unitSeparator) >= 0
	if unitSep {
		if err := checkObjectID(root); err != nil {
			return nil, err
		}
	}

	nTypes, err := c.count(2)
	if err != nil {
		return nil, err
	}
	// Peek past nothing: the loader wants the object count, but types come
	// first in the stream, so register them into the loader as they arrive.
	ld := core.NewLoader(root, len(table))
	typeNames := make([]model.TypeName, nTypes)
	for i := 0; i < nTypes; i++ {
		name, err := c.str(table)
		if err != nil {
			return nil, err
		}
		nDom, err := c.count(1)
		if err != nil {
			return nil, err
		}
		dom := make([]model.Value, nDom)
		for j := range dom {
			if dom[j], err = c.str(table); err != nil {
				return nil, err
			}
		}
		if err := ld.RegisterType(model.NewType(name, dom...)); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
		typeNames[i] = name
	}

	nObjs, err := c.count(4)
	if err != nil {
		return nil, err
	}
	var (
		ids  arena[string]
		opfs arena[prob.OPFEntry]
		vpfs arena[prob.VPFEntry]
	)
	for i := 0; i < nObjs; i++ {
		o, err := c.str(table)
		if err != nil {
			return nil, err
		}
		if unitSep {
			if err := checkObjectID(o); err != nil {
				return nil, err
			}
		}
		ld.AddObject(o)
		typeRef, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if typeRef > uint64(nTypes) {
			return nil, fmt.Errorf("codec: type reference %d out of range for object %s", typeRef, o)
		}
		valRef, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if valRef > uint64(len(table)) {
			return nil, fmt.Errorf("codec: value reference %d out of range for object %s", valRef, o)
		}
		if typeRef > 0 {
			if err := ld.SetLeafType(o, typeNames[typeRef-1]); err != nil {
				return nil, fmt.Errorf("codec: %w", err)
			}
		}
		if valRef > 0 {
			if err := ld.SetDefaultValue(o, table[valRef-1]); err != nil {
				return nil, fmt.Errorf("codec: %w", err)
			}
		}
		nLabels, err := c.count(4)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nLabels; j++ {
			l, err := c.str(table)
			if err != nil {
				return nil, err
			}
			min64, err := c.varint()
			if err != nil {
				return nil, err
			}
			max64, err := c.varint()
			if err != nil {
				return nil, err
			}
			nCh, err := c.count(1)
			if err != nil {
				return nil, err
			}
			if nCh == 0 {
				return nil, fmt.Errorf("codec: empty lch entry for (%s, %s)", o, l)
			}
			children := ids.take(nCh)
			for k := range children {
				if children[k], err = c.str(table); err != nil {
					return nil, err
				}
				if unitSep {
					if err := checkObjectID(children[k]); err != nil {
						return nil, err
					}
				}
			}
			// The encoder emits members in canonical (sorted) order, so
			// FromSorted adopts the slice without a sort or copy.
			ld.SetEdges(o, l, sets.FromSorted(children), int(min64), int(max64))
		}
		nOPF, err := c.count(9)
		if err != nil {
			return nil, err
		}
		if nOPF > 0 {
			es := opfs.take(nOPF)
			for j := range es {
				p, err := c.f64()
				if err != nil {
					return nil, err
				}
				if math.IsNaN(p) || math.IsInf(p, 0) {
					return nil, fmt.Errorf("codec: non-finite OPF probability for object %s", o)
				}
				nSet, err := c.count(1)
				if err != nil {
					return nil, err
				}
				members := ids.take(nSet)
				for k := range members {
					if members[k], err = c.str(table); err != nil {
						return nil, err
					}
					if unitSep {
						if err := checkObjectID(members[k]); err != nil {
							return nil, err
						}
					}
				}
				es[j] = prob.OPFEntry{Set: sets.FromSorted(members), Prob: p}
			}
			// The encoder emits entries in canonical order, which
			// OPFFromSorted adopts as they are.
			w := prob.OPFFromSorted(es)
			if w.Len() != nOPF {
				// A record that repeats a set keeps the last occurrence,
				// where OPFFromSorted's fallback sums.
				w = prob.NewOPFSized(nOPF)
				for _, e := range es {
					w.Put(e.Set, e.Prob)
				}
			}
			ld.SetOPF(o, w)
		}
		nVPF, err := c.count(9)
		if err != nil {
			return nil, err
		}
		if nVPF > 0 {
			es := vpfs.take(nVPF)
			for j := range es {
				p, err := c.f64()
				if err != nil {
					return nil, err
				}
				if math.IsNaN(p) || math.IsInf(p, 0) {
					return nil, fmt.Errorf("codec: non-finite VPF probability for object %s", o)
				}
				val, err := c.str(table)
				if err != nil {
					return nil, err
				}
				es[j] = prob.VPFEntry{Value: val, Prob: p}
			}
			ld.SetVPF(o, prob.VPFFromSorted(es))
		}
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("codec: %d unread bytes in binary body", c.remaining())
	}
	pi, err := ld.Instance()
	if err != nil {
		return nil, fmt.Errorf("codec: decoded instance invalid: %w", err)
	}
	return pi, nil
}
