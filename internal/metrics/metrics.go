// Package metrics provides the small, dependency-free instrumentation
// primitives the query engine and HTTP server use: monotonic counters,
// up-down gauges, fixed-bucket latency histograms, and a named registry
// whose Snapshot is directly JSON-encodable (the expvar-style payload
// behind GET /metrics).
//
// All types are safe for concurrent use. Counters and gauges are
// lock-free; histograms take a short mutex per observation, which is
// negligible next to the inference work they time.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
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

// bucketBounds are the histogram's inclusive upper bounds; observations
// above the last bound land in the overflow bucket. The spacing is
// decade-exponential, matching the spread between an index-hit point query
// (microseconds) and a cold DAG inference (potentially seconds).
var bucketBounds = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// numBuckets is len(bucketBounds) + 1 (the overflow bucket).
const numBuckets = 7

// bucketLabels mirror bucketBounds for snapshots, plus the overflow.
var bucketLabels = [numBuckets]string{
	"le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "inf",
}

// Histogram accumulates durations into fixed exponential buckets.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [numBuckets]int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(bucketBounds) && d > bucketBounds[i] {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.buckets[i]++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time, JSON-encodable histogram view.
// Durations are reported in milliseconds.
type HistogramSnapshot struct {
	Count  int64            `json:"count"`
	SumMS  float64          `json:"sum_ms"`
	MeanMS float64          `json:"mean_ms"`
	MaxMS  float64          `json:"max_ms"`
	Bucket map[string]int64 `json:"buckets"`
}

// Snapshot returns the current histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count:  h.count,
		SumMS:  float64(h.sum) / float64(time.Millisecond),
		MaxMS:  float64(h.max) / float64(time.Millisecond),
		Bucket: make(map[string]int64, len(h.buckets)),
	}
	if h.count > 0 {
		s.MeanMS = s.SumMS / float64(h.count)
	}
	for i, n := range h.buckets {
		if n > 0 {
			s.Bucket[bucketLabels[i]] = n
		}
	}
	return s
}

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

// Registry is a named collection of counters, gauges, histograms, and
// timers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	intHists map[string]*IntHistogram
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
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

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
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
// counters as integers, histograms as HistogramSnapshot values. Names are
// deterministic (map iteration order does not leak into encoded output
// because encoding/json sorts keys).
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.intHists)+len(r.timers))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
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
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.intHists)+len(r.timers))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
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
