// Package bench reproduces the experimental study of Section 7 / Figure 7
// of the PXML paper. It generates balanced-tree probabilistic instances
// over sweeps of depth, branching factor and labeling scheme, runs the
// paper's two operations with per-phase timing, and reports series suitable
// for regenerating each Figure 7 panel:
//
//	(a) total query time of ancestor projection vs number of objects,
//	(b) ℘-update time of ancestor projection vs number of objects,
//	(c) total query time of selection vs number of objects.
//
// Total query time follows the paper's definition: "the sum of the time to
// make a copy of the input instance, the time to locate objects satisfying
// a path expression ..., the time to update the structure of the instance
// (for ancestor projection only), the time to update the local
// interpretation, and the time to write the resulting instance onto a
// disk."
//
// The panels' shapes are asserted by the package's TestFig7 on work counted
// from each operation's input and output, not on time; cmd/pxmlbench prints
// the timed series.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"pxml/internal/algebra"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/stats"
)

// Op selects the measured operation.
type Op string

const (
	// OpProjection measures ancestor projection (panels a and b).
	OpProjection Op = "projection"
	// OpSelection measures object selection (panel c).
	OpSelection Op = "selection"
)

// Config parameterizes an experiment sweep. The paper uses depths 3–9,
// branching factors 2–8, both labelings, 10 instances per configuration
// and 10 queries per instance, with instance sizes 100–100000 objects.
type Config struct {
	Op                  Op
	Depths              []int
	Branches            []int
	Labelings           []gen.Labeling
	InstancesPerConfig  int
	QueriesPerInstance  int
	MaxObjects          int
	MaxOPFEntriesPerObj int
	Seed                int64
	// WriteDir is where result instances are written (the disk leg of the
	// total time). Empty uses the OS temp directory.
	WriteDir string
}

// Row is one aggregated configuration point of a panel series.
type Row struct {
	Op        Op
	Labeling  gen.Labeling
	Depth     int
	Branch    int
	Objects   int
	OPFEntry  int // total ℘ entries in the instance
	Queries   int // measurements aggregated
	TotalNs   float64
	CopyNs    float64
	LocateNs  float64
	StructNs  float64
	UpdateNs  float64
	WriteNs   float64
	TotalStdN float64
}

// Run executes the sweep and returns one row per (labeling, branch, depth)
// configuration that fits under MaxObjects, ordered by labeling, branch,
// then object count.
func Run(cfg Config) ([]Row, error) {
	if cfg.InstancesPerConfig <= 0 {
		cfg.InstancesPerConfig = 1
	}
	if cfg.QueriesPerInstance <= 0 {
		cfg.QueriesPerInstance = 1
	}
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = 100000
	}
	dir := cfg.WriteDir
	if dir == "" {
		dir = os.TempDir()
	}
	out, err := os.CreateTemp(dir, "pxml-bench-*.out")
	if err != nil {
		return nil, fmt.Errorf("bench: creating scratch file: %w", err)
	}
	defer func() {
		out.Close()
		os.Remove(out.Name())
	}()

	var rows []Row
	seed := cfg.Seed
	for _, lab := range cfg.Labelings {
		for _, branch := range cfg.Branches {
			for _, depth := range cfg.Depths {
				n := gen.NumObjects(depth, branch)
				if n > cfg.MaxObjects {
					continue
				}
				if cfg.MaxOPFEntriesPerObj > 0 && 1<<branch > cfg.MaxOPFEntriesPerObj {
					continue
				}
				row, err := runConfig(cfg, lab, depth, branch, seed, out)
				if err != nil {
					return nil, err
				}
				seed += 1000
				rows = append(rows, row)
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Labeling != rows[j].Labeling {
			return rows[i].Labeling < rows[j].Labeling
		}
		if rows[i].Branch != rows[j].Branch {
			return rows[i].Branch < rows[j].Branch
		}
		return rows[i].Objects < rows[j].Objects
	})
	return rows, nil
}

func runConfig(cfg Config, lab gen.Labeling, depth, branch int, seed int64, scratch *os.File) (Row, error) {
	row := Row{Op: cfg.Op, Labeling: lab, Depth: depth, Branch: branch, Objects: gen.NumObjects(depth, branch)}
	var totals []float64
	qrand := rand.New(rand.NewSource(seed ^ 0x5eed))
	for inst := 0; inst < cfg.InstancesPerConfig; inst++ {
		in, err := generate(lab, depth, branch, seed+int64(inst))
		if err != nil {
			return Row{}, err
		}
		if inst == 0 {
			row.OPFEntry = in.PI.ComputeStats().OPFEntries
			// One unmeasured warmup query absorbs first-touch effects
			// (page faults, allocator growth) that would otherwise skew
			// the smallest configurations.
			if _, err := measureQuery(cfg.Op, in, qrand, scratch); err != nil {
				return Row{}, err
			}
		}
		for q := 0; q < cfg.QueriesPerInstance; q++ {
			m, err := measureQuery(cfg.Op, in, qrand, scratch)
			if err != nil {
				return Row{}, err
			}
			row.CopyNs += float64(m.Copy)
			row.LocateNs += float64(m.Locate)
			row.StructNs += float64(m.Structure)
			row.UpdateNs += float64(m.Update)
			row.WriteNs += float64(m.Write)
			totals = append(totals, float64(m.Total()))
			row.Queries++
		}
	}
	if row.Queries > 0 {
		d := float64(row.Queries)
		row.CopyNs /= d
		row.LocateNs /= d
		row.StructNs /= d
		row.UpdateNs /= d
		row.WriteNs /= d
		row.TotalNs = stats.Mean(totals)
		row.TotalStdN = stats.StdDev(totals)
	}
	return row, nil
}

// Measurement is the per-query timing breakdown including the disk write.
type Measurement struct {
	algebra.Timings
	Write time.Duration
}

// Total returns the paper's "total query time".
func (m Measurement) Total() time.Duration {
	return m.Timings.Total() + m.Write
}

// generate builds the Section 7.1 tree every experiment runs on.
func generate(lab gen.Labeling, depth, branch int, seed int64) (*gen.Instance, error) {
	return gen.Generate(gen.Config{Depth: depth, Branch: branch, Labeling: lab, LeafDomainSize: 2, Seed: seed})
}

// runQuery applies op to in for one random query of the paper's shape and
// returns the result, charging the phases to sink when it is non-nil; with a
// nil sink nothing reads the clock.
func runQuery(op Op, in *gen.Instance, r *rand.Rand, sink *algebra.Timings) (*core.ProbInstance, error) {
	switch op {
	case OpProjection:
		p, ok := in.RandomQuery(r)
		if !ok {
			return nil, fmt.Errorf("bench: no satisfiable query for depth %d", in.Config.Depth)
		}
		// The paper's pipeline copies the input instance and updates the
		// copy in place; this implementation is copy-on-build — the result
		// instance is materialized directly during the structure phase —
		// so the paper's "copy" leg is folded into Structure here and
		// Copy stays zero for projection. (Selection below reports the
		// set-up of a copy-on-write overlay of its input there: its result
		// differs from the input in one root chain of OPFs.)
		return algebra.AncestorProjectTimed(in.PI, p, sink)
	case OpSelection:
		p, o, ok := in.RandomSelection(r)
		if !ok {
			return nil, fmt.Errorf("bench: no satisfiable selection for depth %d", in.Config.Depth)
		}
		res, _, err := algebra.SelectTimed(in.PI, algebra.ObjectCondition{Path: p, Object: o}, sink)
		return res, err
	default:
		return nil, fmt.Errorf("bench: unknown op %q", op)
	}
}

// measureQuery runs one timed query (runQuery) on one instance and writes
// the result to scratch.
func measureQuery(op Op, in *gen.Instance, r *rand.Rand, scratch *os.File) (Measurement, error) {
	var m Measurement
	result, err := runQuery(op, in, r, &m.Timings)
	if err != nil {
		return m, err
	}
	// Write the result to disk, as the paper's total time does.
	start := time.Now()
	if _, err := scratch.Seek(0, io.SeekStart); err != nil {
		return m, err
	}
	if err := scratch.Truncate(0); err != nil {
		return m, err
	}
	if err := codec.EncodeText(scratch, result); err != nil {
		return m, err
	}
	m.Write = time.Since(start)
	return m, nil
}

// WriteCSV renders rows as CSV (one series point per line).
func WriteCSV(w io.Writer, rows []Row) error {
	if _, err := fmt.Fprintln(w, "op,labeling,branch,depth,objects,opf_entries,queries,total_ns,copy_ns,locate_ns,struct_ns,update_ns,write_ns,total_stddev_ns"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f\n",
			r.Op, r.Labeling, r.Branch, r.Depth, r.Objects, r.OPFEntry, r.Queries,
			r.TotalNs, r.CopyNs, r.LocateNs, r.StructNs, r.UpdateNs, r.WriteNs, r.TotalStdN); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders rows as an aligned human-readable table, one series
// per (labeling, branch) pair — the shape of the Figure 7 plots.
func WriteTable(w io.Writer, rows []Row) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-4s %-3s %-6s %10s %12s %12s %12s %12s\n",
		"op", "lab", "b", "depth", "objects", "total(ms)", "update(ms)", "write(ms)", "copy(ms)")
	last := ""
	for _, r := range rows {
		series := fmt.Sprintf("%s-%s-b%d", r.Op, r.Labeling, r.Branch)
		if series != last && last != "" {
			b.WriteString("\n")
		}
		last = series
		fmt.Fprintf(&b, "%-10s %-4s %-3d %-6d %10d %12.3f %12.3f %12.3f %12.3f\n",
			r.Op, r.Labeling, r.Branch, r.Depth, r.Objects,
			r.TotalNs/1e6, r.UpdateNs/1e6, r.WriteNs/1e6, r.CopyNs/1e6)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SeriesLinearity fits total time (or update time) against object count
// for each (labeling, branch) series and returns the fits keyed by series
// name — used by EXPERIMENTS.md to check the paper's linearity claims. A
// series that cannot be fitted (one point, or every point at one object
// count) is named in the error; the other series' fits are still returned.
func SeriesLinearity(rows []Row, metric func(Row) float64) (map[string]stats.Fit, error) {
	type key struct {
		lab    gen.Labeling
		branch int
	}
	var order []key
	xs := map[key][]float64{}
	ys := map[key][]float64{}
	for _, r := range rows {
		k := key{r.Labeling, r.Branch}
		if _, ok := xs[k]; !ok {
			order = append(order, k)
		}
		xs[k] = append(xs[k], float64(r.Objects))
		ys[k] = append(ys[k], metric(r))
	}
	out := map[string]stats.Fit{}
	var errs []error
	for _, k := range order {
		name := fmt.Sprintf("%s-b%d", k.lab, k.branch)
		fit, err := stats.LinearFit(xs[k], ys[k])
		if err != nil {
			errs = append(errs, fmt.Errorf("series %s: %w", name, err))
			continue
		}
		out[name] = fit
	}
	return out, errors.Join(errs...)
}
