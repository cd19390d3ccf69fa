package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pxml/internal/codec"
)

// smoke is the size the tests run at: every count a hundredth of the
// benchmark's, so the four workloads finish in a few seconds together.
var smoke = sizes{div: 100}

type benchmarkNames struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkNames {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkNames
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json and was not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload untraced and traced at a hundredth of its
// size: the harness builds and runs from a clean checkout, prints every
// metric BENCHMARK.json names, fails no op, and leaves no directory behind.
func TestSmoke(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			res, err := runUntraced(w.Name, 1, smoke, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, b.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
				}
			}
			res, err = runTraced(w.Name, 1, smoke, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, b.PerLayer)
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) > 0 {
				t.Errorf("left behind: %v", left)
			}
		})
	}
}

// TestSeedDeterminesInputs: equal seeds give identical requests and op
// sequences, different seeds give different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	texts := func(w *workload) (out []string) {
		for i := range w.requests {
			out = append(out, w.requests[i].name+"|"+w.requests[i].text+"|"+string(w.requests[i].body))
		}
		return out
	}
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, smoke)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, smoke)
		c, _ := buildWorkload(name, 8, smoke)
		if !reflect.DeepEqual(a.script, b.script) || !reflect.DeepEqual(texts(a), texts(b)) {
			t.Errorf("%s: seed 7 built two different workloads", name)
		}
		var ba, bc bytes.Buffer
		for _, w := range []struct {
			w   *workload
			buf *bytes.Buffer
		}{{a, &ba}, {c, &bc}} {
			for _, p := range w.w.preload {
				w.buf.Write(codec.AppendBinary(nil, p.pi))
			}
		}
		if reflect.DeepEqual(a.script, c.script) && reflect.DeepEqual(texts(a), texts(c)) && bytes.Equal(ba.Bytes(), bc.Bytes()) {
			t.Errorf("%s: seeds 7 and 8 built the same workload", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestSameAnswer(t *testing.T) {
	a := []byte(`{"text":"σ(r.a = x): P = 0.021429930","prob":0.021429930352112242}` + "\n")
	for _, c := range []struct {
		got  string
		want bool
	}{
		{string(a), true},
		{`{"text":"σ(r.a = x): P = 0.021429930","prob":0.02142993035211225}` + "\n", true}, // last digits only
		{`{"text":"σ(r.a = x): P = 0.021429930","prob":0.0214300}` + "\n", false},
		{`{"text":"σ(r.a = y): P = 0.021429930","prob":0.021429930352112242}` + "\n", false},
		{`{"text":"σ(r.a = x): P = 0.021429930"}` + "\n", false},
	} {
		if got := sameAnswer(a, []byte(c.got)); got != c.want {
			t.Errorf("sameAnswer(%s) = %v, want %v", c.got, got, c.want)
		}
	}
}
