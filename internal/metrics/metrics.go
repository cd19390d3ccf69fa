// Package metrics provides the small, dependency-free instrumentation
// primitives the query engine and HTTP server use: monotonic counters,
// up-down gauges, percentile latency timers, integer histograms, and a
// named registry whose Snapshot is directly JSON-encodable (the
// expvar-style payload behind GET /metrics).
//
// All types are safe for concurrent use. Counters, gauges and timers are
// lock-free; integer histograms take a short mutex per observation, which
// is negligible next to the work they measure.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways — in-flight
// requests, queue depths, on/off health flags.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the current level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// intBucketBounds are the IntHistogram's inclusive upper bounds;
// observations above the last bound land in the overflow bucket. Powers
// of two match the natural spread of batch sizes and queue depths.
var intBucketBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128}

// numIntBuckets is len(intBucketBounds) + 1 (the overflow bucket).
const numIntBuckets = 9

var intBucketLabels = [numIntBuckets]string{
	"le_1", "le_2", "le_4", "le_8", "le_16", "le_32", "le_64", "le_128", "inf",
}

// IntHistogram accumulates dimensionless integer observations — batch
// sizes, queue depths — into fixed power-of-two buckets.
type IntHistogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	max     int64
	buckets [numIntBuckets]int64
}

// Observe records one value (negatives are clamped to zero).
func (h *IntHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(intBucketBounds) && v > intBucketBounds[i] {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[i]++
	h.mu.Unlock()
}

// IntHistogramSnapshot is a point-in-time, JSON-encodable view.
type IntHistogramSnapshot struct {
	Count  int64            `json:"count"`
	Sum    int64            `json:"sum"`
	Mean   float64          `json:"mean"`
	Max    int64            `json:"max"`
	Bucket map[string]int64 `json:"buckets"`
}

// Snapshot returns the current histogram state.
func (h *IntHistogram) Snapshot() IntHistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := IntHistogramSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Max:    h.max,
		Bucket: make(map[string]int64, len(h.buckets)),
	}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	for i, n := range h.buckets {
		if n > 0 {
			s.Bucket[intBucketLabels[i]] = n
		}
	}
	return s
}

// Registry is a named collection of counters, gauges, integer histograms,
// and timers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	intHists map[string]*IntHistogram
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		intHists: make(map[string]*IntHistogram),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// IntHistogram returns the named integer histogram, creating it on first
// use.
func (r *Registry) IntHistogram(name string) *IntHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.intHists[name]
	if h == nil {
		h = &IntHistogram{}
		r.intHists[name] = h
	}
	return h
}

// Timer returns the named percentile timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// EachCounter calls f for every registered counter with its current value,
// in unspecified order. The registry lock is not held during f.
func (r *Registry) EachCounter(f func(name string, v int64)) {
	r.mu.Lock()
	snap := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		snap[n] = c
	}
	r.mu.Unlock()
	for n, c := range snap {
		f(n, c.Value())
	}
}

// EachGauge calls f for every registered gauge with its current value.
func (r *Registry) EachGauge(f func(name string, v int64)) {
	r.mu.Lock()
	snap := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		snap[n] = g
	}
	r.mu.Unlock()
	for n, g := range snap {
		f(n, g.Value())
	}
}

// EachTimer calls f for every registered timer.
func (r *Registry) EachTimer(f func(name string, t *Timer)) {
	r.mu.Lock()
	snap := make(map[string]*Timer, len(r.timers))
	for n, t := range r.timers {
		snap[n] = t
	}
	r.mu.Unlock()
	for n, t := range snap {
		f(n, t)
	}
}

// EachIntHistogram calls f for every registered integer histogram.
func (r *Registry) EachIntHistogram(f func(name string, h *IntHistogram)) {
	r.mu.Lock()
	snap := make(map[string]*IntHistogram, len(r.intHists))
	for n, h := range r.intHists {
		snap[n] = h
	}
	r.mu.Unlock()
	for n, h := range snap {
		f(n, h)
	}
}

// Snapshot returns a JSON-encodable view of every registered metric:
// counters and gauges as integers, timers and integer histograms as their
// snapshot structs. Names are deterministic (map iteration order does not
// leak into encoded output because encoding/json sorts keys).
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.intHists)+len(r.timers))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.intHists {
		out[name] = h.Snapshot()
	}
	for name, t := range r.timers {
		out[name] = t.Snapshot()
	}
	return out
}

// Names returns the registered metric names, sorted (for tests and
// human-readable dumps).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.intHists)+len(r.timers))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.intHists {
		out = append(out, n)
	}
	for n := range r.timers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
