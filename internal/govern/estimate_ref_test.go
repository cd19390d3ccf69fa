package govern

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/gen"
	"pxml/internal/model"
)

// referenceMeasure is Measure as it stood before it stopped copying entry
// lists and building a reachable set it mostly did not need (PR 18's,
// verbatim), plus one addition: it ranged over a map, so which of several
// equally wide objects it named was chance, and it now returns them all.
func referenceMeasure(pi *core.ProbInstance) (Profile, []model.ObjectID) {
	p := Profile{Tree: pi.IsTree(), WorldsFloor: 1}
	g := pi.WeakInstance.Graph()
	root := pi.Root()
	reach := make(map[model.ObjectID]bool)
	for _, o := range g.ReachableFrom(root) {
		reach[o] = true
	}
	p.Objects = len(reach)

	// First pass: per-object BN state counts, mirroring bayes.Compile
	// (positive OPF entries for interior objects, positive VPF entries
	// or a single "present" state for leaves, +1 absent for non-roots).
	states := make(map[model.ObjectID]int, len(reach))
	for o := range reach {
		n := 0
		if !pi.IsLeaf(o) {
			if opf := pi.OPF(o); opf != nil {
				entries := opf.Entries()
				if len(entries) > p.MaxOPFEntries {
					p.MaxOPFEntries = len(entries)
				}
				p.TotalOPFEntries += int64(len(entries))
				for _, e := range entries {
					if len(e.Set) > p.MaxFanout {
						p.MaxFanout = len(e.Set)
					}
					if e.Prob > 0 {
						n++
					}
				}
				if o == root && n > 1 {
					p.WorldsFloor = float64(n)
				}
			}
		} else if vpf := pi.VPF(o); vpf != nil {
			p.TotalOPFEntries += int64(vpf.Len())
			for _, e := range vpf.Entries() {
				if e.Prob > 0 {
					n++
				}
			}
		} else {
			n = 1
		}
		if o != root {
			n++
		}
		if n < 1 {
			// A zero-state variable is invalid input, not a cost blowup;
			// count it as 1 so products stay meaningful.
			n = 1
		}
		states[o] = n
	}

	var widest []model.ObjectID
	// Second pass: predicted CPT cells per object — its own cardinality
	// times the product of its kept (reachable) parents' cardinalities.
	for o := range reach {
		cells := float64(states[o])
		for _, par := range g.Parents(o) {
			if reach[par] {
				cells *= float64(states[par])
			}
		}
		p.TotalCPTCells += cells
		if cells > p.MaxCPTCells {
			p.MaxCPTCells = cells
			p.WidestObject = o
			widest = widest[:0]
		}
		if cells == p.MaxCPTCells {
			widest = append(widest, o)
		}
	}
	return p, widest
}

// TestMeasureMatchesReference: the profile is field for field what it was,
// for builder-made instances (indexed local functions) and for the same
// instances decoded from text and from binary (sealed ones), on trees,
// DAGs with shared children, and an instance with unreachable objects.
func TestMeasureMatchesReference(t *testing.T) {
	instances := map[string]*core.ProbInstance{"figure 2": fixtures.Figure2VariedLeaves()}
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		in, err := gen.Generate(gen.Config{Depth: 4, Branch: 3, Labeling: lab, Seed: 5, LeafDomainSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		instances["tree "+string(lab)] = in.PI
	}
	for _, cfg := range []gen.BombConfig{{Width: 5, Parents: 2, Seed: 1}, {Width: 3, Parents: 4, Seed: 2}, {Width: 10, Parents: 20, Seed: 3}} {
		pi, err := gen.WidthBomb(cfg)
		if err != nil {
			t.Fatal(err)
		}
		instances[fmt.Sprintf("bomb %dx%d", cfg.Parents, cfg.Width)] = pi
	}
	island := fixtures.Figure2()
	island.SetLCh("island", "l", "islet", "B1")
	instances["unreachable parent"] = island

	for name, built := range instances {
		var text bytes.Buffer
		if err := codec.EncodeText(&text, built); err != nil {
			t.Fatal(err)
		}
		fromText, err := codec.DecodeTextBytes(text.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fromBinary, err := codec.DecodeBinaryBytes(codec.AppendBinary(nil, built))
		if err != nil {
			t.Fatal(err)
		}
		for how, pi := range map[string]*core.ProbInstance{"built": built, "text": fromText, "binary": fromBinary} {
			want, widest := referenceMeasure(pi)
			got := Measure(pi)
			// Of several equally wide objects the smallest id is named.
			want.WidestObject = slices.Min(widest)
			if got != want {
				t.Errorf("%s (%s):\n got %+v\nwant %+v", name, how, got, want)
			}
		}
	}
}
