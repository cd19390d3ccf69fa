// Command e2ebench is the repository's end-to-end benchmark: it drives
// server.New(cfg).Handler() in-process with one closed-loop client, so a
// statement crosses every layer of the repository but not the kernel's
// sockets, and reports the metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setUps is how many times a run sets up; setup_s is their median.
const setUps = 3

// minRounds is the fewest timed rounds a run reports a best round from.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// One P, one client: with a second P the concurrent collector runs on
	// the sibling CPU and both wall and CPU time per op move by ±10 %.
	// Set here so the environment cannot override it.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)

	name := flag.String("workload", "", "workload to run: point_hot, infer_dag, algebra_scan or ingest_mix")
	seed := flag.Int64("seed", 1, "inputs are a function of the workload and this seed")
	seconds := flag.Float64("seconds", 15, "how long to run timed rounds for")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced, prints the end-to-end metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for stores and trace files")
	selfcheck := flag.String("selfcheck", "", "run two sets of runs per workload, write results into this directory, and exit non-zero if a metric moved by more than its bound")
	flag.Parse()

	if *selfcheck != "" {
		os.Exit(runSelfcheck(*selfcheck, *workdir, *seconds))
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	run := runUntraced
	if *trace != 0 {
		run = runTraced
	}
	res, err := run(*name, *seed, sizes{div: 1}, time.Duration(*seconds*float64(time.Second)), dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runUntraced is the run the end-to-end numbers come from.
func runUntraced(name string, seed int64, sz sizes, budget time.Duration, dir string) (*result, error) {
	// Set up several times and report the median, so one slow set-up
	// does not read as a regression. Only the last server is kept.
	var hn *harness
	setup := make([]float64, 0, setUps)
	for n := 0; n < setUps; n++ {
		if hn != nil {
			if err := hn.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if hn, err = setUp(name, seed, sz, storeDir(dir, n)); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer hn.close()

	// Fixed work per round; the run reports the best round, because
	// interference on fixed work only ever adds time.
	var best round
	ops := float64(len(hn.w.script))
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < budget; n++ {
		rd := hn.timedRound()
		if n == 0 {
			best = rd
			continue
		}
		best.wall = min(best.wall, rd.wall)
		best.cpu = min(best.cpu, rd.cpu)
		best.p95 = min(best.p95, rd.p95)
	}
	res := &result{Attempted: hn.attempt, Failed: hn.failed, Metrics: map[string]metric{}}
	rss, err := settledRSSMiB()
	if err != nil {
		return nil, err
	}
	if hn.w.durable {
		if _, err := hn.checkDurable(); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics["ops_per_s"] = metric{ops / best.wall.Seconds(), "1/s"}
	res.Metrics["p95_ms"] = metric{ms(best.p95), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{ms(best.cpu) / ops, "ms"}
	res.Metrics["rss_mb"] = metric{rss, "MiB"}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
