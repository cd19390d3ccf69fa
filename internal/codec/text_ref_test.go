package codec

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// decodeTextReference is the text decoder as it stood before the byte-level
// rewrite (PR 18's DecodeText, verbatim): a line scanner, strings.Fields,
// and the incremental core/prob mutators. FuzzDecodeTextDifferential holds
// DecodeTextBytes to it.
func decodeTextReference(r io.Reader) (*core.ProbInstance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	if !sc.Scan() {
		return nil, fmt.Errorf("codec: empty input")
	}
	line++
	if got := strings.TrimSpace(sc.Text()); got != FormatText {
		return nil, fmt.Errorf("codec: line 1: unexpected header %q", got)
	}
	var pi *core.ProbInstance
	opfs := map[model.ObjectID]*prob.OPF{}
	vpfs := map[model.ObjectID]*prob.VPF{}
	type pendingLeaf struct{ typ, val string }
	leaves := map[model.ObjectID]pendingLeaf{}
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		bad := func(msg string) error {
			return fmt.Errorf("codec: line %d: %s: %q", line, msg, sc.Text())
		}
		switch fields[0] {
		case "root":
			if len(fields) != 2 {
				return nil, bad("root needs one id")
			}
			if pi != nil {
				return nil, bad("duplicate root")
			}
			pi = core.NewProbInstance(fields[1])
		case "type":
			if pi == nil {
				return nil, bad("type before root")
			}
			if len(fields) < 3 {
				return nil, bad("type needs a name and a domain")
			}
			if err := pi.RegisterType(model.NewType(fields[1], fields[2:]...)); err != nil {
				return nil, fmt.Errorf("codec: line %d: %w", line, err)
			}
		case "lch":
			if pi == nil {
				return nil, bad("lch before root")
			}
			if len(fields) < 5 {
				return nil, bad("lch needs id label min max children")
			}
			min, err1 := strconv.Atoi(fields[3])
			max, err2 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil {
				return nil, bad("bad cardinality")
			}
			pi.SetLCh(fields[1], fields[2], fields[5:]...)
			pi.SetCard(fields[1], fields[2], min, max)
		case "opf":
			if pi == nil {
				return nil, bad("opf before root")
			}
			if len(fields) < 3 {
				return nil, bad("opf needs id and probability")
			}
			p, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, bad("bad probability")
			}
			w := opfs[fields[1]]
			if w == nil {
				w = prob.NewOPF()
				opfs[fields[1]] = w
			}
			w.Add(sets.NewSet(fields[3:]...), p)
		case "leaf":
			if pi == nil {
				return nil, bad("leaf before root")
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, bad("leaf needs id type [value]")
			}
			pl := pendingLeaf{typ: fields[2]}
			if len(fields) == 4 {
				pl.val = fields[3]
			}
			leaves[fields[1]] = pl
		case "vpf":
			if pi == nil {
				return nil, bad("vpf before root")
			}
			if len(fields) != 4 {
				return nil, bad("vpf needs id probability value")
			}
			p, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, bad("bad probability")
			}
			v := vpfs[fields[1]]
			if v == nil {
				v = prob.NewVPF()
				vpfs[fields[1]] = v
			}
			v.Put(fields[3], p)
		case "obj":
			if pi == nil {
				return nil, bad("obj before root")
			}
			if len(fields) != 2 {
				return nil, bad("obj needs one id")
			}
			pi.AddObject(fields[1])
		default:
			return nil, bad("unknown record")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if pi == nil {
		return nil, fmt.Errorf("codec: missing root record")
	}
	for o, pl := range leaves {
		if err := pi.SetLeafType(o, pl.typ); err != nil {
			return nil, fmt.Errorf("codec: leaf %s: %w", o, err)
		}
		if pl.val != "" {
			if err := pi.SetDefaultValue(o, pl.val); err != nil {
				return nil, fmt.Errorf("codec: leaf %s: %w", o, err)
			}
		}
	}
	for o, w := range opfs {
		pi.SetOPF(o, w)
	}
	for o, v := range vpfs {
		pi.SetVPF(o, v)
	}
	if err := pi.WeakInstance.Validate(); err != nil {
		return nil, fmt.Errorf("codec: decoded instance invalid: %w", err)
	}
	return pi, nil
}

// TestDecodeTextLineLimit: the 4 MiB line limit is where the line scanner
// put it, with and without a final newline, and fails the same way.
func TestDecodeTextLineLimit(t *testing.T) {
	const prefix = "obj "
	for _, n := range []int{maxTextLine - 1, maxTextLine, maxTextLine + 1} {
		for _, tail := range []string{"", "\n", "\r\n", "\nobj y\n"} {
			doc := "pxml/1\nroot r\n" + prefix + strings.Repeat("x", n-len(prefix)) + tail
			_, wantErr := decodeTextReference(strings.NewReader(doc))
			_, gotErr := DecodeTextBytes([]byte(doc))
			if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Errorf("line of %d bytes, tail %q: reference %v, decoder %v", n, tail, wantErr, gotErr)
			}
			// The carriage return counts towards the line, the newline not.
			line := n + strings.Count(tail, "\r")
			if (line > maxTextLine) != (gotErr != nil) {
				t.Errorf("line of %d bytes, tail %q: error %v", n, tail, gotErr)
			}
		}
	}
}

// TestDecodeTextBytesKeepsNothing: the instance holds copies of its tokens,
// not slices of the caller's buffer.
func TestDecodeTextBytesKeepsNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeText(&buf, fixtures.Figure2VariedLeaves()); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Clone(buf.Bytes())
	pi, err := DecodeTextBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	clear(raw)
	var again bytes.Buffer
	if err := EncodeText(&again, pi); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("the decoded instance changed with the input buffer")
	}
}

// TestDecodedInstanceConcurrentReaders: an instance goes from the decoder to
// any number of readers without a copy, so everything a reader touches on a
// sealed OPF or VPF, and every memo the instance fills on first use, must be
// safe to reach from several goroutines at once (run under -race).
func TestDecodedInstanceConcurrentReaders(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeText(&buf, fixtures.Figure2VariedLeaves()); err != nil {
		t.Fatal(err)
	}
	text, err := DecodeTextBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	binary, err := DecodeBinaryBytes(AppendBinary(nil, text))
	if err != nil {
		t.Fatal(err)
	}
	want := AppendBinary(nil, text)
	for _, pi := range []*core.ProbInstance{text, binary} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := pi.ValidateLite(); err != nil {
					t.Error(err)
				}
				if pi.IsTree() || !pi.AllReachable() {
					t.Error("Figure 2 is a fully reachable DAG")
				}
				if !bytes.Equal(AppendBinary(nil, pi), want) {
					t.Error("binary record differs between readers")
				}
				ov := pi.Overlay()
				for _, o := range ov.Objects() {
					if w := ov.OPF(o); w != nil {
						for _, e := range w.Entries() {
							if w.Prob(e.Set) != e.Prob || w.Clone().Len() != w.Len() {
								t.Errorf("OPF(%s) reads inconsistently", o)
							}
						}
						_, _ = w.Mass(), w.Support()
					}
					if v := ov.VPF(o); v != nil {
						for _, e := range v.Entries() {
							if v.Prob(e.Value) != e.Prob {
								t.Errorf("VPF(%s) reads inconsistently", o)
							}
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
