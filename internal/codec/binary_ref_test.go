package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/model"
	"pxml/internal/prob"
	"pxml/internal/sets"
)

// refAppendBody is appendBinaryBody as it was before the encoder read the
// instance's numbering (DESIGN §31): every string interned through one map
// and sorted. It is the reference the records are held byte-identical to.
func refAppendBody(buf []byte, pi *core.ProbInstance) []byte {
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

// TestBinaryMatchesInterningEncoder: the encoder that finds object ids by
// number writes the bytes the interning one did, on generated trees and
// DAGs, on overlays whose new objects are numbered out of id order, and on
// instances that fail validation and so hold strings outside V and the
// type domains (which the encoder meets only in its second pass).
func TestBinaryMatchesInterningEncoder(t *testing.T) {
	var cases []*core.ProbInstance
	cases = append(cases, fixtures.Figure2(), fixtures.Figure2VariedLeaves(), core.NewProbInstance("r"))
	for seed := int64(1); seed <= 4; seed++ {
		for _, l := range []gen.Labeling{gen.SL, gen.FR} {
			in, err := gen.Generate(gen.Config{Depth: 3, Branch: 3, Labeling: l, LeafDomainSize: 3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, in.PI, roundTripText(t, in.PI))
		}
	}
	ov := fixtures.Figure2().Overlay()
	ov.SetLCh("R", "zine", "A0", "Z9")
	ov.SetOPF("R", prob.OPFFromSorted([]prob.OPFEntry{{Set: sets.NewSet("A0", "B1"), Prob: 1}}))
	cases = append(cases, ov)
	// Invalid: a zero-probability OPF set holding a non-child, a VPF
	// value outside the domain, an OPF on an object outside V.
	bad := fixtures.Figure2().Clone()
	w := bad.OPF("R").Clone()
	w.Put(sets.NewSet("B1", "nobody"), 0)
	bad.SetOPF("R", w)
	v := bad.VPF("T1").Clone()
	v.Put("elsewhere", 0)
	bad.SetVPF("T1", v)
	bad.SetOPF("outsider", w)
	cases = append(cases, bad)
	for i, pi := range cases {
		if got, want := appendBinaryBody(nil, pi), refAppendBody(nil, pi); !bytes.Equal(got, want) {
			t.Errorf("case %d (%d objects): %d bytes, reference %d", i, pi.NumObjects(), len(got), len(want))
		}
	}
}
