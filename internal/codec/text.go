package codec

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

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
	fields     [][]byte
	names      []string
	opfs       runs[prob.OPFEntry]
	vpfs       runs[prob.VPFEntry]
	leaves     runs[pendingLeaf]
}

// pendingLeaf is a leaf record held back until every type record is in.
type pendingLeaf struct{ typ, val string }

// runs collects, per object and in line order, the entries its records
// contribute. Adjacent records of one object, the normal layout, fill a
// reused buffer that is copied out at its exact size when another object's
// record arrives; only an object whose records resume later has its runs
// joined at the end.
type runs[E any] struct {
	cur   []E // entries of curO's run in progress
	curO  int32
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
	}
	r.cur = append(r.cur, e)
}

// flush closes the run in progress.
func (r *runs[E]) flush() {
	if len(r.cur) > 0 {
		es := r.arena.take(len(r.cur))
		copy(es, r.cur)
		r.done = append(r.done, objRun[E]{r.curO, es})
		r.cur = r.cur[:0]
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

// set returns the canonical set over the tokens, which the loader numbers.
func (d *textDecoder) set(tokens [][]byte) sets.Set {
	members := d.ids.take(len(tokens))
	for i, t := range tokens {
		members[i], _ = d.ld.NumberBytes(t)
	}
	return sets.FromSorted(members)
}

// Byte classes for splitFields: a token byte, one of the six ASCII space
// bytes, or part of a multi-byte rune.
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

// splitFields is bytes.Fields into a reused buffer. A line holding any byte
// of a multi-byte rune takes bytes.Fields itself, so U+0085, U+00A0 and the
// other non-ASCII spaces still separate.
func splitFields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	for i := 0; i < len(line); {
		start := i
		for i < len(line) && byteClass[line[i]] == byteToken {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
		if i < len(line) {
			if byteClass[line[i]] == byteHigh {
				return append(dst[:0], bytes.Fields(line)...)
			}
			i++
		}
	}
	return dst
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
		var line []byte
		if line, pos, err = nextLine(raw, pos); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
		if err := d.record(lineNo, line); err != nil {
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

// record applies one line of the document.
func (d *textDecoder) record(lineNo int, line []byte) error {
	d.fields = splitFields(d.fields, line)
	fields := d.fields
	if len(fields) == 0 {
		return nil
	}
	bad := func(msg string) error {
		return fmt.Errorf("codec: line %d: %s: %q", lineNo, msg, line)
	}
	if d.ld == nil {
		switch string(fields[0]) {
		case "root":
		case "type", "lch", "opf", "leaf", "vpf", "obj":
			return bad(string(fields[0]) + " before root")
		default:
			return bad("unknown record")
		}
	}
	if d.unitSep {
		for i, f := range fields {
			if namesObject(string(fields[0]), i) && bytes.IndexByte(f, unitSeparator) >= 0 {
				return bad("object id contains U+001F")
			}
		}
	}
	switch string(fields[0]) {
	case "root":
		if len(fields) != 2 {
			return bad("root needs one id")
		}
		if d.ld != nil {
			return bad("duplicate root")
		}
		d.ld = core.NewLoader(string(fields[1]), d.objects)
	case "type":
		if len(fields) < 3 {
			return bad("type needs a name and a domain")
		}
		d.names = d.names[:0]
		for _, f := range fields[1:] {
			d.names = append(d.names, d.str(f))
		}
		if err := d.ld.RegisterType(model.NewType(d.names[0], d.names[1:]...)); err != nil {
			return fmt.Errorf("codec: line %d: %w", lineNo, err)
		}
	case "lch":
		if len(fields) < 5 {
			return bad("lch needs id label min max children")
		}
		min, err1 := strconv.Atoi(string(fields[3]))
		max, err2 := strconv.Atoi(string(fields[4]))
		if err1 != nil || err2 != nil {
			return bad("bad cardinality")
		}
		o := d.object(fields[1])
		d.ld.Declare(o)
		d.kids = d.kids[:0]
		for _, f := range fields[5:] {
			_, c := d.ld.NumberBytes(f)
			d.ld.Declare(c)
			d.kids = append(d.kids, c)
		}
		d.ld.SetEdges(o, d.str(fields[2]), d.kids, min, max)
	case "opf":
		if len(fields) < 3 {
			return bad("opf needs id and probability")
		}
		p, err := strconv.ParseFloat(string(fields[2]), 64)
		if err != nil {
			return bad("bad probability")
		}
		if p == 0 {
			// Repeated sets sum from +0, which is what a lone "-0" has
			// always decoded to.
			p = 0
		}
		d.opfs.add(d.object(fields[1]), prob.OPFEntry{Set: d.set(fields[3:]), Prob: p})
	case "leaf":
		if len(fields) != 3 && len(fields) != 4 {
			return bad("leaf needs id type [value]")
		}
		pl := pendingLeaf{typ: d.str(fields[2])}
		if len(fields) == 4 {
			pl.val = d.str(fields[3])
		}
		d.leaves.add(d.object(fields[1]), pl)
	case "vpf":
		if len(fields) != 4 {
			return bad("vpf needs id probability value")
		}
		p, err := strconv.ParseFloat(string(fields[2]), 64)
		if err != nil {
			return bad("bad probability")
		}
		d.vpfs.add(d.object(fields[1]), prob.VPFEntry{Value: d.str(fields[3]), Prob: p})
	case "obj":
		if len(fields) != 2 {
			return bad("obj needs one id")
		}
		_, o := d.ld.NumberBytes(fields[1])
		d.ld.Declare(o)
	default:
		return bad("unknown record")
	}
	return nil
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
