package metrics

import (
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

// TestTimerQuantileAccuracy feeds a known distribution and checks the
// estimated percentiles stay within the bucket scheme's documented ±6%
// relative error.
func TestTimerQuantileAccuracy(t *testing.T) {
	var tm Timer
	// 1..10000 µs uniformly: pXX is XX% of 10ms.
	for i := 1; i <= 10000; i++ {
		tm.Observe(time.Duration(i) * time.Microsecond)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 5 * time.Millisecond},
		{0.95, 9500 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
	}
	for _, c := range checks {
		got := tm.Quantile(c.q)
		rel := math.Abs(float64(got-c.want)) / float64(c.want)
		if rel > 0.061 {
			t.Errorf("Quantile(%v) = %v, want %v ±6%% (off by %.1f%%)", c.q, got, c.want, rel*100)
		}
	}
	s := tm.Snapshot()
	if s.Count != 10000 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.MaxMS < 9.99 || s.MaxMS > 10.01 {
		t.Errorf("MaxMS = %v", s.MaxMS)
	}
	if s.MeanMS < 5.0 || s.MeanMS > 5.001 { // (1 + 10000) / 2 µs
		t.Errorf("MeanMS = %v", s.MeanMS)
	}
	if s.P50MS <= 0 || s.P95MS < s.P50MS || s.P99MS < s.P95MS {
		t.Errorf("percentiles not monotone: %+v", s)
	}
}

// TestTimerWideSpread covers the nanosecond-to-seconds spread the engine
// actually produces: quantiles must separate a fast mode from a slow tail.
func TestTimerWideSpread(t *testing.T) {
	var tm Timer
	for i := 0; i < 950; i++ {
		tm.Observe(300 * time.Nanosecond) // cached point queries
	}
	for i := 0; i < 50; i++ {
		tm.Observe(2 * time.Second) // cold DAG inference
	}
	if p50 := tm.Quantile(0.50); p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want sub-microsecond bucket", p50)
	}
	p99 := tm.Quantile(0.99)
	if p99 < 1800*time.Millisecond || p99 > 2200*time.Millisecond {
		t.Errorf("p99 = %v, want ~2s", p99)
	}
}

func TestTimerEdgeCases(t *testing.T) {
	var tm Timer
	if got := tm.Quantile(0.99); got != 0 {
		t.Errorf("empty timer quantile = %v", got)
	}
	s := tm.Snapshot()
	if s.Count != 0 || s.P99MS != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	tm.Observe(-time.Second) // clamps to zero, lands in underflow bucket
	tm.Observe(time.Hour)    // beyond the last finite bucket: overflow
	if got := tm.Quantile(1.0); got != time.Hour {
		t.Errorf("overflow quantile = %v, want capped at observed max", got)
	}
	if got := tm.Count(); got != 2 {
		t.Errorf("count = %d", got)
	}
}

func TestTimerConcurrent(t *testing.T) {
	var tm Timer
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tm.Observe(time.Duration(1+i%100) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if got := tm.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	if p50 := tm.Quantile(0.5); p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Errorf("concurrent p50 = %v, want ~50ms", p50)
	}
}

func TestRegistryTimerAndVisitors(t *testing.T) {
	r := NewRegistry()
	r.Timer("lat").Observe(5 * time.Millisecond)
	r.Counter("c").Add(3)
	r.Gauge("g").Set(7)
	if r.Timer("lat").Count() != 1 {
		t.Fatal("Timer not interned by name")
	}
	snap := r.Snapshot()
	ts, ok := snap["lat"].(TimerSnapshot)
	if !ok || ts.Count != 1 {
		t.Fatalf("snapshot timer = %#v", snap["lat"])
	}
	var names []string
	r.EachTimer(func(n string, tm *Timer) { names = append(names, n) })
	if len(names) != 1 || names[0] != "lat" {
		t.Errorf("EachTimer names = %v", names)
	}
	counters := map[string]int64{}
	r.EachCounter(func(n string, v int64) { counters[n] = v })
	if counters["c"] != 3 {
		t.Errorf("EachCounter = %v", counters)
	}
	gauges := map[string]int64{}
	r.EachGauge(func(n string, v int64) { gauges[n] = v })
	if gauges["g"] != 7 {
		t.Errorf("EachGauge = %v", gauges)
	}
	found := false
	for _, n := range r.Names() {
		if n == "lat" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names missing timer: %v", r.Names())
	}
}

func TestSampleRuntime(t *testing.T) {
	r := NewRegistry()
	SampleRuntime(r)
	if r.Gauge("runtime_goroutines").Value() < 1 {
		t.Error("runtime_goroutines not sampled")
	}
	if r.Gauge("runtime_heap_alloc_bytes").Value() <= 0 {
		t.Error("runtime_heap_alloc_bytes not sampled")
	}
	// OS gauges are best-effort; on Linux both must be present and sane.
	if _, err := os.Stat("/proc/self/statm"); err == nil {
		if r.Gauge("os_rss_bytes").Value() <= 0 {
			t.Error("os_rss_bytes not sampled despite /proc")
		}
		if r.Gauge("os_open_fds").Value() <= 0 {
			t.Error("os_open_fds not sampled despite /proc")
		}
	}
}
