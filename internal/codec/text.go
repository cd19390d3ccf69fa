package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"pxml/internal/core"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// FormatText identifies the line-oriented text encoding. Grammar (one
// record per line, space separated; identifiers, labels and values must be
// whitespace-free):
//
//	pxml 1
//	root <id>
//	type <name> <value>...
//	lch <id> <label> <min> <max> <child>...
//	opf <id> <p> <child>...
//	leaf <id> <typename> [<default-value>]
//	vpf <id> <p> <value>
//	obj <id>
//
// "obj" records objects that appear nowhere else (isolated ids).
const FormatText = "pxml/1"

// EncodeText writes the instance in the compact text encoding. It is the
// serialization used by the benchmark harness's write-to-disk leg.
func EncodeText(w io.Writer, pi *core.ProbInstance) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintln(bw, FormatText); err != nil {
		return err
	}
	if err := checkToken(pi.Root()); err != nil {
		return err
	}
	fmt.Fprintf(bw, "root %s\n", pi.Root())
	var typeNames []string
	for name := range pi.Types() {
		typeNames = append(typeNames, name)
	}
	sort.Strings(typeNames)
	for _, name := range typeNames {
		t := pi.Types()[name]
		if err := checkTokens(append([]string{t.Name}, t.Domain...)); err != nil {
			return err
		}
		bw.WriteString("type ")
		bw.WriteString(t.Name)
		for _, v := range t.Domain {
			bw.WriteByte(' ')
			bw.WriteString(v)
		}
		bw.WriteByte('\n')
	}
	mentioned := map[model.ObjectID]bool{pi.Root(): true}
	for _, o := range pi.Objects() {
		if err := checkToken(o); err != nil {
			return err
		}
		for _, l := range pi.Labels(o) {
			if err := checkToken(l); err != nil {
				return err
			}
			iv := pi.Card(o, l)
			bw.WriteString("lch ")
			bw.WriteString(o)
			bw.WriteByte(' ')
			bw.WriteString(l)
			bw.WriteByte(' ')
			bw.WriteString(strconv.Itoa(iv.Min))
			bw.WriteByte(' ')
			bw.WriteString(strconv.Itoa(iv.Max))
			for _, c := range pi.LCh(o, l) {
				mentioned[c] = true
				bw.WriteByte(' ')
				bw.WriteString(c)
			}
			bw.WriteByte('\n')
			mentioned[o] = true
		}
		if w := pi.OPF(o); w != nil {
			for _, e := range w.Entries() {
				bw.WriteString("opf ")
				bw.WriteString(o)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatFloat(e.Prob, 'g', -1, 64))
				for _, c := range e.Set {
					bw.WriteByte(' ')
					bw.WriteString(c)
				}
				bw.WriteByte('\n')
			}
		}
		if t, ok := pi.TypeOf(o); ok {
			bw.WriteString("leaf ")
			bw.WriteString(o)
			bw.WriteByte(' ')
			bw.WriteString(t.Name)
			if v, okV := pi.DefaultValue(o); okV {
				bw.WriteByte(' ')
				bw.WriteString(v)
			}
			bw.WriteByte('\n')
			mentioned[o] = true
		}
		if v := pi.VPF(o); v != nil {
			for _, e := range v.Entries() {
				if err := checkToken(e.Value); err != nil {
					return err
				}
				bw.WriteString("vpf ")
				bw.WriteString(o)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatFloat(e.Prob, 'g', -1, 64))
				bw.WriteByte(' ')
				bw.WriteString(e.Value)
				bw.WriteByte('\n')
			}
		}
	}
	for _, o := range pi.Objects() {
		if !mentioned[o] {
			bw.WriteString("obj ")
			bw.WriteString(o)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// maxTextLine is the longest line, terminator excluded, the text decoder
// accepts; a longer one fails with bufio.ErrTooLong.
const maxTextLine = 1<<22 - 1

// DecodeText reads an instance from the text encoding.
func DecodeText(r io.Reader) (*core.ProbInstance, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		// One allocation for a source that knows its length.
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return DecodeTextBytes(buf.Bytes())
}

// DecodeTextBytes is DecodeText over an in-memory document. Nothing in the
// returned instance references raw.
//
// Records may come in any order after root. A repeated opf set sums; a
// repeated vpf value, leaf record or lch (object, label) pair replaces the
// earlier one, an lch without children removing the pair; lch children and
// leaf ids join V without an obj record; a leaf may precede its type.
func DecodeTextBytes(raw []byte) (*core.ProbInstance, error) {
	// The encoder writes four to seven lines per object; sizing the tables
	// from the line count spares them most of their regrowth.
	objects := bytes.Count(raw, []byte{'\n'})/5 + 1
	d := textDecoder{objects: objects, strs: make(map[string]string)}
	return d.decode(raw)
}

// textDecoder is the state of one DecodeTextBytes call. It tokenises the
// document in place and assembles the instance through core.Loader, whose
// numbering interns every object id once (DESIGN §31); labels, type names
// and values are interned in strs. Each object's opf and vpf lines are
// collected and handed to prob as one slice, which a document in the
// encoder's canonical order seals without an index.
type textDecoder struct {
	ld      *core.Loader
	objects int // estimate, for sizing
	strs    map[string]string
	// unitSep is set when the document holds U+001F anywhere, and only then
	// are a record's object ids looked at for it (see checkObjectID).
	unitSep bool
	// lastObject is the id the latest lch, opf, leaf or vpf record named,
	// and lastNum its number.
	lastObject model.ObjectID
	lastNum    int32
	ids        arena[string]
	kids       []int32
	names      []string
	opfs       runs[prob.OPFEntry]
	vpfs       runs[prob.VPFEntry]
	leaves     runs[pendingLeaf]
}

// pendingLeaf is a leaf record held back until every type record is in.
type pendingLeaf struct{ typ, val string }

// runs collects, per object and in line order, the entries its records
// contribute. Adjacent records of one object, the normal layout, are
// appended where the arena has room, sized by the run before, and the run
// is claimed at its exact size when another object's record arrives; only
// an object whose records resume later has its runs joined at the end.
type runs[E any] struct {
	cur   []E // entries of curO's run in progress
	curO  int32
	last  int // the length of the run before
	done  []objRun[E]
	arena arena[E]
}

type objRun[E any] struct {
	o  int32
	es []E
}

func (r *runs[E]) add(o int32, e E) {
	if len(r.cur) == 0 || o != r.curO {
		r.flush()
		r.curO = o
		r.cur = r.arena.room(max(r.last, 1))
	}
	r.cur = append(r.cur, e)
}

// flush closes the run in progress.
func (r *runs[E]) flush() {
	if len(r.cur) > 0 {
		r.done = append(r.done, objRun[E]{r.curO, r.arena.keep(r.cur)})
		r.cur, r.last = nil, len(r.cur)
	}
}

// finish returns one run per object, in order of first appearance, later
// runs of an object appended to its first (into a new array: arena slices
// have no spare capacity). The caller may keep the entry slices. at is
// scratch indexed by object number, all zero, and left so.
func (r *runs[E]) finish(at []int32) []objRun[E] {
	r.flush()
	joined := r.done[:0]
	for _, run := range r.done {
		if j := at[run.o]; j > 0 {
			joined[j-1].es = append(joined[j-1].es, run.es...)
		} else {
			at[run.o] = int32(len(joined)) + 1
			joined = append(joined, run)
		}
	}
	for _, run := range joined {
		at[run.o] = 0
	}
	return joined
}

// str interns a label, type name or value: the lookup does not allocate,
// the first occurrence copies the bytes out of the document.
func (d *textDecoder) str(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// object numbers the id a record starts with; consecutive records mostly
// name the same object, which a comparison settles without a lookup.
func (d *textDecoder) object(b []byte) int32 {
	if string(b) != d.lastObject {
		d.lastObject, d.lastNum = d.ld.NumberBytes(b)
	}
	return d.lastNum
}

// set returns the canonical set over the rest of c's fields, which the
// loader numbers.
func (d *textDecoder) set(c *fieldCursor) sets.Set {
	// A field and the space before it take two bytes at least.
	members := d.ids.room((c.end - c.pos + 1) / 2)
	for f := c.next(); f != nil; f = c.next() {
		id, _ := d.ld.NumberBytes(f)
		members = append(members, id)
	}
	return sets.FromSorted(d.ids.keep(members))
}

// Byte classes for fieldCursor: a token byte, one of the six ASCII space
// bytes bytes.Fields separates on, or part of a multi-byte rune.
const (
	byteToken = iota
	byteSpace
	byteHigh
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = byteSpace
	}
	for c := 0x80; c < 0x100; c++ {
		t[c] = byteHigh
	}
	return t
}()

// fieldCursor walks the fields of one line as bytes.Fields cuts them: runs
// of bytes between white space, where white space is one of the six ASCII
// spaces or, at a byte of 0x80 or above, a rune unicode.IsSpace accepts
// (U+0085, U+00A0, U+2003, ...). A byte of invalid UTF-8 is a one-byte rune
// that is not a space, as bytes.Fields decodes it.
//
// buf holds the line and the rest of the document after it, so a field can
// be scanned eight bytes at a time up to the line's end: whatever byte
// follows a line in buf is its newline or carriage return, which ends a
// field as white space does.
type fieldCursor struct {
	buf []byte
	end int // the line is buf[:end]
	pos int
}

// skip moves past white space.
func (c *fieldCursor) skip() {
	for c.pos < c.end {
		switch byteClass[c.buf[c.pos]] {
		case byteSpace:
			c.pos++
			continue
		case byteHigh:
			if n := c.spaceRune(c.pos); n > 0 {
				c.pos += n
				continue
			}
		}
		return
	}
}

// spaceRune returns the width of the rune at buf[i] when it is white
// space, and 0 when it is not.
func (c *fieldCursor) spaceRune(i int) int {
	if r, n := utf8.DecodeRune(c.buf[i:c.end]); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// next returns the next field, or nil when the line has no more.
func (c *fieldCursor) next() []byte {
	buf, i := c.buf, c.pos
	if i < c.end && buf[i] == ' ' {
		// The encoder separates fields with one space.
		i++
	}
	if i < c.end && byteClass[buf[i]] != byteToken {
		c.pos = i
		c.skip()
		i = c.pos
	}
	start := i
	for i+8 <= len(buf) {
		if m := specialBytes(binary.LittleEndian.Uint64(buf[i:])); m != 0 {
			i += bits.TrailingZeros64(m) / 8
			break
		}
		i += 8
	}
	for i < c.end {
		switch byteClass[buf[i]] {
		case byteToken:
			i++
			continue
		case byteHigh:
			if c.spaceRune(i) == 0 {
				_, n := utf8.DecodeRune(buf[i:c.end])
				i += n
				continue
			}
		}
		break
	}
	c.pos = i
	if i == start {
		return nil
	}
	return buf[start:i]
}

// errNoField is what fieldCursor.prob reports at the end of the line.
var errNoField = errors.New("codec: no field")

// prob reads the next field as a probability: strconv.ParseFloat's result
// for it, bit for bit and error for error. A field fastFloat takes whole is
// converted where it lies in the line; any other goes to ParseFloat.
func (c *fieldCursor) prob() (float64, error) {
	c.skip()
	if p, n, ok := fastFloat(c.buf[c.pos:]); ok {
		if e := c.pos + n; e == c.end || e < c.end && byteClass[c.buf[e]] == byteSpace {
			c.pos = e
			return p, nil
		}
	}
	f := c.next()
	if f == nil {
		return 0, errNoField
	}
	return strconv.ParseFloat(string(f), 64)
}

// specialBytes marks the bytes of v outside 0x21–0x7F, the bytes that may
// end a field: subtracting 0x21 from each borrows exactly where one is below
// it, and a byte of 0x80 or above has its top bit set already. A borrow can
// mark bytes above the first marked one too, so only the lowest mark is
// exact; it is the only one read.
func specialBytes(v uint64) uint64 {
	return ((v - 0x2121212121212121) | v) & 0x8080808080808080
}

// nextLine cuts the line starting at raw[pos] the way bufio.ScanLines does:
// up to the next newline or the end of input, one trailing carriage return
// dropped. It returns the position of the line after it.
func nextLine(raw []byte, pos int) (line []byte, next int, err error) {
	line, next = raw[pos:], len(raw)
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, next = line[:i], pos+i+1
	}
	if len(line) > maxTextLine {
		return nil, next, bufio.ErrTooLong
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, next, nil
}

func (d *textDecoder) decode(raw []byte) (*core.ProbInstance, error) {
	header, pos, err := nextLine(raw, 0)
	if len(raw) == 0 || err != nil {
		return nil, fmt.Errorf("codec: empty input")
	}
	if got := bytes.TrimSpace(header); string(got) != FormatText {
		return nil, fmt.Errorf("codec: line 1: unexpected header %q", got)
	}
	d.unitSep = bytes.IndexByte(raw, unitSeparator) >= 0
	for lineNo := 2; pos < len(raw); lineNo++ {
		start := pos
		var line []byte
		if line, pos, err = nextLine(raw, pos); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
		if err := d.record(lineNo, fieldCursor{buf: raw[start:], end: len(line)}); err != nil {
			return nil, err
		}
	}
	if d.ld == nil {
		return nil, fmt.Errorf("codec: missing root record")
	}
	at := make([]int32, d.ld.Len())
	for _, run := range d.leaves.finish(at) {
		o, pl := run.o, run.es[len(run.es)-1]
		if err := d.ld.SetLeafType(o, pl.typ); err != nil {
			return nil, fmt.Errorf("codec: leaf %s: %w", d.ld.Name(o), err)
		}
		if pl.val != "" {
			if err := d.ld.SetDefaultValue(o, pl.val); err != nil {
				return nil, fmt.Errorf("codec: leaf %s: %w", d.ld.Name(o), err)
			}
		}
	}
	for _, run := range d.opfs.finish(at) {
		d.ld.SetOPF(run.o, prob.OPFFromSorted(run.es))
	}
	for _, run := range d.vpfs.finish(at) {
		d.ld.SetVPF(run.o, prob.VPFFromSorted(run.es))
	}
	pi, err := d.ld.Instance()
	if err != nil {
		return nil, fmt.Errorf("codec: decoded instance invalid: %w", err)
	}
	return pi, nil
}

// record applies the line c walks, reading its fields as it goes.
func (d *textDecoder) record(lineNo int, c fieldCursor) error {
	line := c.buf[:c.end]
	kind := c.next()
	if kind == nil {
		return nil
	}
	bad := func(msg string) error {
		return fmt.Errorf("codec: line %d: %s: %q", lineNo, msg, line)
	}
	if d.ld == nil {
		switch string(kind) {
		case "root":
		case "type", "lch", "opf", "leaf", "vpf", "obj":
			return bad(string(kind) + " before root")
		default:
			return bad("unknown record")
		}
	}
	if d.unitSep && unitSepInID(string(kind), line) {
		return bad("object id contains U+001F")
	}
	switch string(kind) {
	case "root":
		id := c.next()
		if id == nil || c.next() != nil {
			return bad("root needs one id")
		}
		if d.ld != nil {
			return bad("duplicate root")
		}
		d.ld = core.NewLoader(string(id), d.objects)
	case "type":
		d.names = d.names[:0]
		for f := c.next(); f != nil; f = c.next() {
			d.names = append(d.names, d.str(f))
		}
		if len(d.names) < 2 {
			return bad("type needs a name and a domain")
		}
		if err := d.ld.RegisterType(model.NewType(d.names[0], d.names[1:]...)); err != nil {
			return fmt.Errorf("codec: line %d: %w", lineNo, err)
		}
	case "lch":
		id, label, lo, hi := c.next(), c.next(), c.next(), c.next()
		if hi == nil {
			return bad("lch needs id label min max children")
		}
		min, err1 := strconv.Atoi(string(lo))
		max, err2 := strconv.Atoi(string(hi))
		if err1 != nil || err2 != nil {
			return bad("bad cardinality")
		}
		o := d.object(id)
		d.ld.Declare(o)
		d.kids = d.kids[:0]
		for f := c.next(); f != nil; f = c.next() {
			_, k := d.ld.NumberBytes(f)
			d.ld.Declare(k)
			d.kids = append(d.kids, k)
		}
		d.ld.SetEdges(o, d.str(label), d.kids, min, max)
	case "opf":
		id := c.next()
		p, err := c.prob()
		if err == errNoField {
			return bad("opf needs id and probability")
		}
		if err != nil {
			return bad("bad probability")
		}
		if p == 0 {
			// Repeated sets sum from +0, which is what a lone "-0" has
			// always decoded to.
			p = 0
		}
		d.opfs.add(d.object(id), prob.OPFEntry{Set: d.set(&c), Prob: p})
	case "leaf":
		id, typ, val := c.next(), c.next(), c.next()
		if typ == nil || c.next() != nil {
			return bad("leaf needs id type [value]")
		}
		pl := pendingLeaf{typ: d.str(typ)}
		if val != nil {
			pl.val = d.str(val)
		}
		d.leaves.add(d.object(id), pl)
	case "vpf":
		id := c.next()
		p, err := c.prob()
		val := c.next()
		if err == errNoField || val == nil || c.next() != nil {
			return bad("vpf needs id probability value")
		}
		if err != nil {
			return bad("bad probability")
		}
		d.vpfs.add(d.object(id), prob.VPFEntry{Value: d.str(val), Prob: p})
	case "obj":
		id := c.next()
		if id == nil || c.next() != nil {
			return bad("obj needs one id")
		}
		_, o := d.ld.NumberBytes(id)
		d.ld.Declare(o)
	default:
		return bad("unknown record")
	}
	return nil
}

// unitSepInID reports whether a field of line that names an object, in a
// record of the given kind, holds unitSeparator.
func unitSepInID(kind string, line []byte) bool {
	c := fieldCursor{buf: line, end: len(line)}
	for i, f := 0, c.next(); f != nil; i, f = i+1, c.next() {
		if namesObject(kind, i) && bytes.IndexByte(f, unitSeparator) >= 0 {
			return true
		}
	}
	return false
}

// namesObject reports whether field i of a record of the given kind is an
// object id.
func namesObject(kind string, i int) bool {
	switch kind {
	case "root", "leaf", "vpf", "obj":
		return i == 1
	case "lch":
		return i == 1 || i >= 5
	case "opf":
		return i == 1 || i >= 3
	}
	return false
}

// unitSeparator is the byte sets.Set.Key joins members with: were it part
// of an object id, {"a\x1fb"} and {"a","b"} would share a key, so every
// decoder refuses such ids.
const unitSeparator = 0x1f

// checkObjectID refuses an object id holding unitSeparator.
func checkObjectID(id string) error {
	if strings.IndexByte(id, unitSeparator) >= 0 {
		return fmt.Errorf("codec: object id %q contains U+001F", id)
	}
	return nil
}

func checkToken(s string) error {
	if s == "" {
		return fmt.Errorf("codec: empty token")
	}
	if strings.IndexFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' }) >= 0 {
		return fmt.Errorf("codec: token %q contains whitespace", s)
	}
	return nil
}

func checkTokens(ss []string) error {
	for _, s := range ss {
		if err := checkToken(s); err != nil {
			return err
		}
	}
	return nil
}
