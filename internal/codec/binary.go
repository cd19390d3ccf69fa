package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
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
// the length prefix and the CRC). The string table is V, which the instance
// keeps sorted, merged with the few other strings: labels, type names and
// values. An object id is found in it by number, and only the others are
// looked up (DESIGN §31).
func appendBinaryBody(buf []byte, pi *core.ProbInstance) []byte {
	start := len(buf)
	buf, odd := appendBody(buf, pi, nil)
	if len(odd) > 0 {
		// Only an instance that fails validation holds strings the table
		// was not made from: ids outside V, values outside every domain.
		// Encoded again, the table has them.
		buf, _ = appendBody(buf[:start], pi, odd)
	}
	return buf
}

// appendBody is appendBinaryBody with a table made from V, the labels, the
// types and extra. It returns in odd the strings it met that the table
// lacks, which it wrote as index 0.
func appendBody(buf []byte, pi *core.ProbInstance, extra []string) (_ []byte, odd []string) {
	rank := pi.Ranks()
	ids := make([]string, 0, pi.NumObjects())
	others := make(map[string]uint64)
	for _, s := range extra {
		others[s] = 0
	}
	pi.EachObject(func(ob core.Object) {
		ids = append(ids, ob.ID)
		ob.EachLabel(func(l model.Label, _ sets.Set, _ []int32, _ sets.Interval) { others[l] = 0 })
	})
	typeNames := make([]string, 0, len(pi.Types()))
	for name, t := range pi.Types() {
		typeNames = append(typeNames, name)
		others[t.Name] = 0
		for _, v := range t.Domain {
			others[v] = 0
		}
	}
	slices.Sort(typeNames)
	typePos := make(map[model.TypeName]uint64, len(typeNames))
	for i, name := range typeNames {
		typePos[name] = uint64(i)
	}
	root, rootInV := slices.BinarySearch(ids, pi.Root())
	if !rootInV {
		others[pi.Root()] = 0
	}

	// Merge the sorted ids with the sorted others into the table: pos[r]
	// is where the id of rank r lands.
	keys := make([]string, 0, len(others))
	for k := range others {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	pos := make([]uint64, len(ids))
	table := make([]string, 0, len(ids)+len(keys))
	for i, j := 0, 0; i < len(ids) || j < len(keys); {
		at := uint64(len(table))
		switch {
		case j == len(keys) || i < len(ids) && ids[i] < keys[j]:
			table, pos[i] = append(table, ids[i]), at
			i++
		case i == len(ids) || keys[j] < ids[i]:
			table, others[keys[j]] = append(table, keys[j]), at
			j++
		default:
			table, pos[i], others[keys[j]] = append(table, ids[i]), at, at
			i, j = i+1, j+1
		}
	}
	// index returns the table index of s, an object of number n or a
	// string that is none (n < 0).
	index := func(s string, n int32) uint64 {
		if n >= 0 && rank[n] >= 0 {
			return pos[rank[n]]
		}
		at, ok := others[s]
		if !ok {
			odd = append(odd, s)
		}
		return at
	}

	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, s := range table {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	if rootInV {
		buf = binary.AppendUvarint(buf, pos[root])
	} else {
		buf = binary.AppendUvarint(buf, others[pi.Root()])
	}

	buf = binary.AppendUvarint(buf, uint64(len(typeNames)))
	for _, name := range typeNames {
		t := pi.Types()[name]
		buf = binary.AppendUvarint(buf, others[t.Name])
		buf = binary.AppendUvarint(buf, uint64(len(t.Domain)))
		for _, v := range t.Domain {
			buf = binary.AppendUvarint(buf, others[v])
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	var kids kidTable
	var members []int32
	pi.EachObject(func(ob core.Object) {
		kids.load(ob)
		buf = binary.AppendUvarint(buf, index(ob.ID, ob.Num))
		if ob.Type != "" {
			buf = binary.AppendUvarint(buf, typePos[ob.Type]+1)
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
		if ob.HasDefault {
			buf = binary.AppendUvarint(buf, index(ob.Default, -1)+1)
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(kids.labels))
		ob.EachLabel(func(l model.Label, cs sets.Set, nums []int32, iv sets.Interval) {
			buf = binary.AppendUvarint(buf, others[l])
			buf = binary.AppendVarint(buf, int64(iv.Min))
			buf = binary.AppendVarint(buf, int64(iv.Max))
			buf = binary.AppendUvarint(buf, uint64(cs.Len()))
			for k, c := range cs {
				buf = binary.AppendUvarint(buf, index(c, nums[k]))
			}
		})
		if w := ob.OPF; w != nil {
			buf = binary.AppendUvarint(buf, uint64(w.Len()))
			w.Each(func(c sets.Set, p float64) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
				buf = binary.AppendUvarint(buf, uint64(c.Len()))
				members = kids.match(members, c)
				for i, m := range c {
					buf = binary.AppendUvarint(buf, index(m, members[i]))
				}
			})
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
		if v := ob.VPF; v != nil {
			buf = binary.AppendUvarint(buf, uint64(v.Len()))
			v.Each(func(val string, p float64) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
				buf = binary.AppendUvarint(buf, index(val, -1))
			})
		} else {
			buf = binary.AppendUvarint(buf, 0)
		}
	})
	return buf, odd
}

// kidTable is one object's potential children with their numbers, which
// is how the encoder finds an OPF member's number without a lookup by id.
type kidTable struct {
	ids    []string
	nums   []int32
	labels int
	buf    struct {
		ids  []string
		nums []int32
	}
}

// load fills the table with ob's potential children: one label's as the
// instance stores them, several joined.
func (kt *kidTable) load(ob core.Object) {
	kt.buf.ids, kt.buf.nums, kt.labels = kt.buf.ids[:0], kt.buf.nums[:0], 0
	ob.EachLabel(func(_ model.Label, kids sets.Set, nums []int32, _ sets.Interval) {
		kt.buf.ids, kt.buf.nums = append(kt.buf.ids, kids...), append(kt.buf.nums, nums...)
		kt.ids, kt.nums, kt.labels = kids, nums, kt.labels+1
	})
	if kt.labels != 1 {
		kt.ids, kt.nums = kt.buf.ids, kt.buf.nums
	}
}

// match returns in dst the number of each member of c, -1 for one that is
// no potential child. Members come in id order, as each label's children
// do, so a member is looked for from the previous one's place on, round
// the table once, by equality alone — which two copies of one decoded
// string settle at once.
func (kt *kidTable) match(dst []int32, c sets.Set) []int32 {
	dst, j, n := dst[:0], 0, len(kt.ids)
	for _, m := range c {
		// i walks the ring from j, k counts its steps.
		i, k := j, 0
		for k < n && kt.ids[i] != m {
			k++
			if i++; i == n {
				i = 0
			}
		}
		if k == n {
			dst = append(dst, -1)
			continue
		}
		dst = append(dst, kt.nums[i])
		if j = i + 1; j == n {
			j = 0
		}
	}
	return dst
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
	i, err := c.ref(table)
	if err != nil {
		return "", err
	}
	return table[i], nil
}

// ref reads a string-table index.
func (c *bcursor) ref(table []string) (int, error) {
	i, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if i >= uint64(len(table)) {
		return 0, fmt.Errorf("codec: string index %d out of range (table size %d)", i, len(table))
	}
	return int(i), nil
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

// room returns the slab's free room, at least n long, as an empty slice for
// a caller to append a run of unknown length to; keep then claims the run.
func (a *arena[T]) room(n int) []T {
	if n > cap(a.slab)-len(a.slab) {
		a.next = min(max(2*a.next, minArenaSlab), maxArenaSlab)
		a.slab = make([]T, 0, max(a.next, n))
	}
	return a.slab[len(a.slab):len(a.slab)]
}

// keep claims run, which was appended to what room returned, and returns it
// with no spare capacity. A run that outgrew the room has an array of its
// own and claims nothing.
func (a *arena[T]) keep(run []T) []T {
	if len(run) <= cap(a.slab)-len(a.slab) {
		a.slab = a.slab[:len(a.slab)+len(run)]
	}
	return run[:len(run):len(run)]
}

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
		kids []int32
		opfs arena[prob.OPFEntry]
		vpfs arena[prob.VPFEntry]
	)
	// num[k] is 1 + the object number of table[k], given on its first use
	// as an object id, so the decode hashes each id once (DESIGN §31).
	num := make([]int32, len(table))
	object := func(k int) (model.ObjectID, int32, error) {
		if unitSep {
			if err := checkObjectID(table[k]); err != nil {
				return "", 0, err
			}
		}
		if num[k] == 0 {
			num[k] = ld.Number(table[k]) + 1
		}
		return table[k], num[k] - 1, nil
	}
	for i := 0; i < nObjs; i++ {
		k, err := c.ref(table)
		if err != nil {
			return nil, err
		}
		o, on, err := object(k)
		if err != nil {
			return nil, err
		}
		ld.Declare(on)
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
			if err := ld.SetLeafType(on, typeNames[typeRef-1]); err != nil {
				return nil, fmt.Errorf("codec: %w", err)
			}
		}
		if valRef > 0 {
			if err := ld.SetDefaultValue(on, table[valRef-1]); err != nil {
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
			kids = kids[:0]
			for j := 0; j < nCh; j++ {
				k, err := c.ref(table)
				if err != nil {
					return nil, err
				}
				_, n, err := object(k)
				if err != nil {
					return nil, err
				}
				kids = append(kids, n)
			}
			// The encoder emits members in canonical (sorted) order, which
			// the loader adopts without a sort.
			ld.SetEdges(on, l, kids, int(min64), int(max64))
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
			ld.SetOPF(on, w)
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
			ld.SetVPF(on, prob.VPFFromSorted(es))
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
