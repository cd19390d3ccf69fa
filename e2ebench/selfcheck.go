package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// selfcheckRuns is how many runs make one set, each with its own seed.
const selfcheckRuns = 10

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (its default, exclusive method),
// because that is how the driver computes a metric's spread.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld, m := len(data), len(data)+1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// runRow is one run's end-to-end metrics, as baseline.json keeps them.
type runRow struct {
	Workload string             `json:"workload"`
	Set      string             `json:"set"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

// runSelfcheck does what the driver does to accept the benchmark: two
// sets of runs per workload, every run a fresh process with its own seed,
// the sets interleaved so that drift of the machine hits both alike. For
// every end-to-end metric it prints both medians, how much worse the
// second is, each set's quartile spread, and the bound. It returns a
// non-zero exit code when a median moved, or a spread (other than
// setup_s's) reached, past the bound.
func runSelfcheck(dir, workdir string, seconds float64) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "e2ebench: selfcheck:", err)
		return 1
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fail(fmt.Errorf("run from the repository root: %w", err))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	spinBefore := refSpin(sizes{div: 1})
	var rows []runRow
	for n := 0; n < selfcheckRuns; n++ {
		for _, w := range bf.Workloads {
			for s, set := range []string{"A", "B"} {
				seed := int64(1 + n + s*selfcheckRuns)
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-workdir", workdir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fail(fmt.Errorf("%s seed %d: %w", w.Name, seed, err))
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fail(fmt.Errorf("%s seed %d: %w", w.Name, seed, err))
				}
				if !res.Correct || res.Failed != 0 {
					return fail(fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed, res.Failed, res.Attempted))
				}
				row := runRow{Workload: w.Name, Set: set, Seed: seed, Metrics: map[string]float64{}}
				for name, m := range res.Metrics {
					row.Metrics[name] = m.Value
				}
				rows = append(rows, row)
				fmt.Fprintf(os.Stderr, "selfcheck: %s set %s seed %d done\n", w.Name, set, seed)
			}
		}
	}
	spinAfter := refSpin(sizes{div: 1})

	var b strings.Builder
	fmt.Fprintf(&b, "e2ebench selfcheck: 2 sets x %d runs per workload, %g s measured per run, sets interleaved\n", selfcheckRuns, seconds)
	fmt.Fprintf(&b, "%s, %d CPUs, GOMAXPROCS=1, ref_spin %.1f ms before, %.1f ms after\n", runtime.Version(), runtime.NumCPU(), ms(spinBefore), ms(spinAfter))
	fmt.Fprintf(&b, "spread = (Q3-Q1)/median of one set's %d runs; worse = how far set B's median is on the wrong side of set A's\n\n", selfcheckRuns)
	fmt.Fprintf(&b, "%-28s %13s %13s %8s %9s %9s %6s  %s\n", "workload/metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "verdict")
	bad := 0
	for _, w := range bf.Workloads {
		for _, e := range bf.EndToEnd {
			var sets [2][]float64
			for _, r := range rows {
				if r.Workload == w.Name {
					s := int(r.Set[0] - 'A')
					sets[s] = append(sets[s], r.Metrics[e.Name])
				}
			}
			medA, medB := median(sets[0]), median(sets[1])
			worse := (medB - medA) / medA
			if e.Better == "higher" {
				worse = -worse
			}
			var spread [2]float64
			for s := range sets {
				q1, q3 := quartiles(sets[s])
				spread[s] = (q3 - q1) / median(sets[s])
			}
			verdict := "ok"
			switch widest := max(spread[0], spread[1]); {
			case worse > e.Bound:
				verdict = "FAIL: median moved past the bound"
			case widest > e.Bound && e.Name != "setup_s":
				verdict = "FAIL: spread past the bound"
			case widest > e.Bound/3 && e.Name != "setup_s":
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				bad++
			}
			fmt.Fprintf(&b, "%-28s %13.6g %13.6g %+7.1f%% %8.1f%% %8.1f%% %5.0f%%  %s\n",
				w.Name+"/"+e.Name, medA, medB, 100*worse, 100*spread[0], 100*spread[1], 100*e.Bound, verdict)
		}
	}
	fmt.Fprintf(&b, "\n%d of %d workload/metric pairs failed\n", bad, len(bf.Workloads)*len(bf.EndToEnd))
	fmt.Print(b.String())
	if err := os.WriteFile(filepath.Join(dir, "selfcheck.txt"), []byte(b.String()), 0o644); err != nil {
		return fail(err)
	}
	baseline, err := json.MarshalIndent(struct {
		Go        string   `json:"go"`
		NumCPU    int      `json:"nproc"`
		Seconds   float64  `json:"seconds"`
		RefSpinMs float64  `json:"runtime.ref_spin_ms"`
		Runs      []runRow `json:"runs"`
	}{runtime.Version(), runtime.NumCPU(), seconds, ms(spinBefore+spinAfter) / 2, rows}, "", " ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "baseline.json"), append(baseline, '\n'), 0o644); err != nil {
		return fail(err)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
