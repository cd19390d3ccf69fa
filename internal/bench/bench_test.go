package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pxml/internal/gen"
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

func TestSeriesLinearity(t *testing.T) {
	cfg := smallConfig(OpProjection)
	cfg.Depths = []int{2, 3, 4, 5}
	rows, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fits := SeriesLinearity(rows, func(r Row) float64 { return r.UpdateNs })
	if len(fits) != 2 {
		t.Fatalf("fits = %v", fits)
	}
	// Instances this small are dominated by timer noise, so only check the
	// fits are well-formed; the pxmlbench tool checks real linearity on
	// full-size sweeps.
	for name, fit := range fits {
		if math.IsNaN(fit.Slope) || math.IsNaN(fit.R2) {
			t.Errorf("%s: malformed fit %+v", name, fit)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(OpSelection)
	if cfg.Op != OpSelection || len(cfg.Depths) != 7 || cfg.MaxObjects != 100000 {
		t.Errorf("default config = %+v", cfg)
	}
}

func TestMeasurementTotal(t *testing.T) {
	var m Measurement
	m.Copy, m.Locate, m.Update, m.Write = 1, 2, 3, 4
	if m.Total() != 10 {
		t.Errorf("total = %v", m.Total())
	}
}
