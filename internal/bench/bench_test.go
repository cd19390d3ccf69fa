package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/gen"
	"pxml/internal/stats"
)

// smallConfig runs a tiny sweep fast enough for unit tests.
func smallConfig(op Op) Config {
	return Config{
		Op:                 op,
		Depths:             []int{2, 3},
		Branches:           []int{2},
		Labelings:          []gen.Labeling{gen.SL, gen.FR},
		InstancesPerConfig: 2,
		QueriesPerInstance: 2,
		MaxObjects:         1000,
		Seed:               7,
	}
}

func TestRunProjectionPanel(t *testing.T) {
	rows, err := Run(smallConfig(OpProjection))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 labelings × 1 branch × 2 depths
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Queries != 4 {
			t.Errorf("queries = %d", r.Queries)
		}
		if r.TotalNs <= 0 || r.UpdateNs < 0 || r.WriteNs <= 0 {
			t.Errorf("timings: %+v", r)
		}
		if r.Objects != gen.NumObjects(r.Depth, r.Branch) {
			t.Errorf("object count mismatch: %+v", r)
		}
		if r.OPFEntry <= 0 {
			t.Errorf("OPF entries = %d", r.OPFEntry)
		}
	}
}

func TestRunSelectionPanel(t *testing.T) {
	rows, err := Run(smallConfig(OpSelection))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Selection shares its input (core.ProbInstance.Overlay), so the
		// copy leg is a constant few hundred ns and a coarse clock may read
		// it as zero; the write still has to serialize the whole result.
		if r.CopyNs < 0 || r.CopyNs >= r.WriteNs {
			t.Errorf("selection's copy leg must not scale with the instance: %+v", r)
		}
		if r.StructNs != 0 {
			t.Errorf("selection has no structure-update phase: %+v", r)
		}
	}
}

func TestRunRespectsMaxObjects(t *testing.T) {
	cfg := smallConfig(OpProjection)
	cfg.MaxObjects = 6 // only depth 2, branch 2 (7 objects) is above this
	rows, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d, want 0", len(rows))
	}
}

func TestRunRespectsMaxOPFEntries(t *testing.T) {
	cfg := smallConfig(OpProjection)
	cfg.Branches = []int{2, 4}
	cfg.MaxOPFEntriesPerObj = 4 // excludes branch 4 (2^4 = 16)
	rows, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Branch != 2 {
			t.Errorf("branch %d not excluded", r.Branch)
		}
	}
}

func TestWriteCSVAndTable(t *testing.T) {
	rows, err := Run(smallConfig(OpProjection))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Errorf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "op,labeling,branch") {
		t.Errorf("csv header = %q", lines[0])
	}
	var tbl bytes.Buffer
	if err := WriteTable(&tbl, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "projection") {
		t.Error("table missing op")
	}
}

// TestSeriesLinearity: a series that cannot be fitted is reported, not
// dropped, and does not cost the others their fits.
func TestSeriesLinearity(t *testing.T) {
	rows := []Row{
		{Labeling: gen.SL, Branch: 2, Objects: 15, UpdateNs: 30},
		{Labeling: gen.SL, Branch: 2, Objects: 63, UpdateNs: 126},
		{Labeling: gen.SL, Branch: 4, Objects: 85, UpdateNs: 1}, // one point
		{Labeling: gen.FR, Branch: 2, Objects: 63, UpdateNs: 1}, // one object count
		{Labeling: gen.FR, Branch: 2, Objects: 63, UpdateNs: 2},
	}
	fits, err := SeriesLinearity(rows, func(r Row) float64 { return r.UpdateNs })
	if fit, ok := fits["SL-b2"]; !ok || fit.Slope != 2 || fit.R2 != 1 {
		t.Errorf("SL-b2 fit = %+v, %v; want slope 2, R² 1", fit, ok)
	}
	if len(fits) != 1 {
		t.Errorf("fits = %v, want SL-b2 alone", fits)
	}
	if err == nil {
		t.Fatal("no error for the series that cannot be fitted")
	}
	for _, name := range []string{"SL-b4", "FR-b2"} {
		if !strings.Contains(err.Error(), "series "+name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

func TestMeasurementTotal(t *testing.T) {
	var m Measurement
	m.Copy, m.Locate, m.Update, m.Write = 1, 2, 3, 4
	if m.Total() != 10 {
		t.Errorf("total = %v", m.Total())
	}
}

// The Figure 7 gate. Section 7.2 of the paper makes three claims about the
// panels: ancestor projection's ℘ update is linear in the objects it
// touches and grows with |℘(o)| = 2^b (a, b), and selection conditions only
// depth-many objects while its write grows with the instance (c). The gate
// asserts them on work counted from each operation's input and output rather
// than on time, so a loaded machine or a collection landing in one sample
// cannot move it. The operations run through runQuery with no Timings sink,
// so no clock is read.

// gateTrees are Section 7.1 trees from 15 to 5 461 objects: under both
// labelings, each size is one instance and gateQueries queries of each op.
var gateTrees = []struct{ branch, minDepth, maxDepth int }{
	{2, 3, 9}, // 15 … 1 023 objects
	{4, 3, 6}, // 85 … 5 461
	{8, 2, 4}, // 73 … 4 681
}

const gateQueries = 8

// gateSeries is the work of one (labeling, b) series, ascending in size.
type gateSeries struct {
	lab                   gen.Labeling
	branch                int
	projection, selection []work
}

func (s gateSeries) String() string { return fmt.Sprintf("%s-b%d", s.lab, s.branch) }

// work is what one query did, leg by leg.
type work struct {
	objects, depth int
	kept           int // structure: objects in the result
	updated        int // objects whose ℘ the update wrote
	update         int // Σ over those of |℘_in(o)| + |℘_out(o)|: entries read and written
	write          int // bytes codec.EncodeText writes for the result
}

// byteCount is an io.Writer that only counts.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// countWork runs one random query of op on in and counts its legs.
// Projection updates every kept object that keeps an OPF. Selection's
// result is an overlay that shares each OPF it leaves alone by pointer
// (core.ProbInstance.Overlay), so the OPFs it wrote are those that differ.
func countWork(t *testing.T, op Op, in *gen.Instance, r *rand.Rand) work {
	t.Helper()
	out, err := runQuery(op, in, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := work{objects: in.PI.NumObjects(), depth: in.Config.Depth, kept: out.NumObjects()}
	written := out.SortedOPFObjects()
	if op == OpSelection {
		written = nil
		for _, o := range in.PI.SortedOPFObjects() {
			if out.OPF(o) != in.PI.OPF(o) {
				written = append(written, o)
			}
		}
	}
	for _, o := range written {
		w.updated++
		w.update += in.PI.OPF(o).Len() + out.OPF(o).Len()
	}
	var n byteCount
	if err := codec.EncodeText(&n, out); err != nil {
		t.Fatal(err)
	}
	w.write = int(n)
	return w
}

// gateSweep counts gateQueries projections and selections on every gate
// tree: SL series first, each by ascending b.
func gateSweep(t *testing.T) []gateSeries {
	var out []gateSeries
	seed := int64(1)
	for _, lab := range []gen.Labeling{gen.SL, gen.FR} {
		for _, tr := range gateTrees {
			s := gateSeries{lab: lab, branch: tr.branch}
			for depth := tr.minDepth; depth <= tr.maxDepth; depth++ {
				in, err := generate(lab, depth, tr.branch, seed)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				seed++
				for range gateQueries {
					s.projection = append(s.projection, countWork(t, OpProjection, in, r))
					s.selection = append(s.selection, countWork(t, OpSelection, in, r))
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// fit is the least-squares line of y against x over ws.
func fit(t *testing.T, ws []work, x, y func(work) float64) stats.Fit {
	t.Helper()
	xs, ys := make([]float64, len(ws)), make([]float64, len(ws))
	for i, w := range ws {
		xs[i], ys[i] = x(w), y(w)
	}
	f, err := stats.LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// perObject is the update's entries per updated object over ws.
func perObject(ws []work) float64 {
	var entries, objects int
	for _, w := range ws {
		entries += w.update
		objects += w.updated
	}
	return float64(entries) / float64(objects)
}

// bySize splits a series into its runs of one instance size.
func bySize(ws []work) [][]work {
	var out [][]work
	for i := 0; i < len(ws); {
		j := i
		for j < len(ws) && ws[j].objects == ws[i].objects {
			j++
		}
		out = append(out, ws[i:j])
		i = j
	}
	return out
}

func TestFig7(t *testing.T) {
	sweep := gateSweep(t)

	t.Run("Update/projection", func(t *testing.T) {
		for i, s := range sweep {
			ws := s.projection
			kept := func(w work) float64 { return float64(w.kept) }
			f := fit(t, ws, kept, func(w work) float64 { return float64(w.update) })
			fw := fit(t, ws, kept, func(w work) float64 { return float64(w.write) })
			lo, hi := perObject(ws), perObject(ws)
			for _, size := range bySize(ws) {
				lo, hi = min(lo, perObject(size)), max(hi, perObject(size))
			}
			t.Logf("%s: update = %.1f entries/kept object · kept %+.0f, R² = %.5f; %.1f–%.1f entries per updated object; write %.0f bytes/kept object, R² = %.3f",
				s, f.Slope, f.Intercept, f.R2, lo, hi, fw.Slope, fw.R2)
			// ℘(o) is updated once for each object: linear in what is kept.
			if f.R2 < 0.98 {
				t.Errorf("%s: update work is not linear in kept objects (R² = %.4f < 0.98)", s, f.R2)
			}
			// And at a cost per object set by b alone.
			if hi > 1.25*lo {
				t.Errorf("%s: entries per updated object range over %.1f–%.1f across sizes, more than 25 %%", s, lo, hi)
			}
			// A larger b costs more per object, but less than the square of
			// the growth in |℘(o)| (E2's sub-quadratic claim).
			if i > 0 && sweep[i-1].lab == s.lab {
				prev := sweep[i-1]
				got := perObject(ws) / perObject(prev.projection)
				bound := float64(int(1) << (2 * (s.branch - prev.branch)))
				if got <= 1 || got >= bound {
					t.Errorf("%s: b %d → %d multiplies entries per updated object by %.1f, want in (1, %.0f)", s.lab, prev.branch, s.branch, got, bound)
				}
			}
		}
	})

	t.Run("Update/selection", func(t *testing.T) {
		for _, s := range sweep {
			for _, w := range s.selection {
				// Only the depth objects on the selected object's root chain
				// are conditioned, each to the 2^(b−1) sets holding its chain
				// child, whatever the size of the instance.
				want := w.depth * (1<<s.branch + 1<<(s.branch-1))
				if w.updated != w.depth || w.update != want {
					t.Errorf("%s, %d objects: selection wrote %d OPFs, %d entries read and written; want depth %d, %d",
						s, w.objects, w.updated, w.update, w.depth, want)
					break
				}
			}
		}
	})

	t.Run("Write/selection", func(t *testing.T) {
		for _, s := range sweep {
			ws := s.selection
			f := fit(t, ws, func(w work) float64 { return float64(w.objects) }, func(w work) float64 { return float64(w.write) })
			t.Logf("%s: write = %.1f bytes/object · n %+.0f, R² = %.6f", s, f.Slope, f.Intercept, f.R2)
			// The structure is unchanged, so the whole instance is written.
			if f.R2 < 0.999 {
				t.Errorf("%s: selection's write is not linear in objects (R² = %.5f < 0.999)", s, f.R2)
			}
			// And it comes to dominate: the write grows with n, the update
			// only with depth.
			prev := 0.0
			for _, size := range bySize(ws) {
				var write, update int
				for _, w := range size {
					write += w.write
					update += w.update
				}
				ratio := float64(write) / float64(update)
				if ratio <= prev {
					t.Errorf("%s: write/update %.1f at %d objects is not above %.1f at the size before", s, ratio, size[0].objects, prev)
				}
				prev = ratio
			}
		}
	})
}
