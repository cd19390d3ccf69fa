// pxmlbench reproduces the PXML paper's Figure 7 experiments and prints
// the series the paper plots.
//
// Panels:
//
//	-panel a   total query time of ancestor projection vs #objects
//	-panel b   ℘-update time of ancestor projection vs #objects
//	-panel c   total query time of selection vs #objects
//
// Examples:
//
//	pxmlbench -panel a
//	pxmlbench -panel c -branches 2,4,8 -depths 3,4,5,6,7 -csv fig7c.csv
//	pxmlbench -panel b -instances 10 -queries 10 -max 100000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pxml/internal/bench"
	"pxml/internal/gen"
)

func main() {
	panel := flag.String("panel", "a", "figure panel: a, b (projection) or c (selection)")
	depths := flag.String("depths", "3,4,5,6,7,8,9", "comma-separated tree depths")
	branches := flag.String("branches", "2,4,8", "comma-separated branching factors")
	labelings := flag.String("labelings", "SL,FR", "comma-separated labeling schemes")
	instances := flag.Int("instances", 3, "instances per configuration (the paper uses 10)")
	queries := flag.Int("queries", 3, "queries per instance (the paper uses 10)")
	maxObjects := flag.Int("max", 100000, "skip configurations above this object count")
	seed := flag.Int64("seed", 1, "base random seed")
	csvPath := flag.String("csv", "", "also write the rows as CSV to this file")
	flag.Parse()

	var op bench.Op
	switch *panel {
	case "a", "b":
		op = bench.OpProjection
	case "c":
		op = bench.OpSelection
	default:
		fatal(fmt.Errorf("unknown panel %q (want a, b or c)", *panel))
	}

	cfg := bench.Config{
		Op:                 op,
		Depths:             ints(*depths),
		Branches:           ints(*branches),
		Labelings:          labs(*labelings),
		InstancesPerConfig: *instances,
		QueriesPerInstance: *queries,
		MaxObjects:         *maxObjects,
		Seed:               *seed,
	}
	rows, err := bench.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Figure 7(%s): %s — %d instances × %d queries per configuration\n\n",
		*panel, panelTitle(*panel), *instances, *queries)
	if err := bench.WriteTable(os.Stdout, rows); err != nil {
		fatal(err)
	}
	// Linearity report (the paper's Section 7.2 observations).
	metric := func(r bench.Row) float64 { return r.TotalNs }
	metricName := "total time"
	if *panel == "b" {
		metric = func(r bench.Row) float64 { return r.UpdateNs }
		metricName = "℘-update time"
	}
	fits, err := bench.SeriesLinearity(rows, metric)
	if len(fits) > 0 {
		fmt.Printf("\nlinear fits of %s vs #objects (paper: linear per series):\n", metricName)
		for name, fit := range fits {
			fmt.Printf("  %-8s slope %.1f ns/object, R² = %.4f\n", name, fit.Slope, fit.R2)
		}
	}
	if err != nil {
		fmt.Printf("\nno linear fit of %s for:\n%v\n", metricName, err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := bench.WriteCSV(f, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote CSV to %s\n", *csvPath)
	}
}

func panelTitle(p string) string {
	switch p {
	case "a":
		return "total query time of ancestor projection"
	case "b":
		return "local-interpretation update time of ancestor projection"
	default:
		return "total query time of selection"
	}
}

func ints(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad integer %q", part))
		}
		out = append(out, n)
	}
	return out
}

func labs(s string) []gen.Labeling {
	var out []gen.Labeling
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "SL":
			out = append(out, gen.SL)
		case "FR":
			out = append(out, gen.FR)
		default:
			fatal(fmt.Errorf("bad labeling %q (want SL or FR)", part))
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pxmlbench:", err)
	os.Exit(1)
}
