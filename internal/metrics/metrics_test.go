package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge = %d, want 11", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(3)
	r.Gauge("inflight").Set(2)
	r.Timer("latency").Observe(time.Millisecond)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back["queries"].(float64) != 3 {
		t.Errorf("queries = %v", back["queries"])
	}
	if back["inflight"].(float64) != 2 {
		t.Errorf("inflight = %v", back["inflight"])
	}
	lat := back["latency"].(map[string]any)
	if lat["count"].(float64) != 1 || lat["p99_ms"] == nil {
		t.Errorf("latency = %v", lat)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "inflight" || names[1] != "latency" || names[2] != "queries" {
		t.Errorf("names = %v", names)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Timer("h").Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Timer("h").Snapshot().Count; got != 8000 {
		t.Fatalf("timer count = %d", got)
	}
}
