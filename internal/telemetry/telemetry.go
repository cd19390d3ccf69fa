// Package telemetry pushes the server's metrics registry to a
// StatsD/Graphite sink on a fixed interval. The exporter runs entirely
// on its own goroutine: the request path only ever touches lock-free
// counters and timers, and a slow, unreachable, or flapping sink costs
// nothing but a dropped-flush counter — the flush loop dials lazily,
// drops the payload on any error, and retries the connection on the
// next tick.
//
// Over UDP the wire format is the classic StatsD line protocol:
//
//	pxmld.http_requests:12|c        counters (delta since last flush)
//	pxmld.http_inflight:3|g         gauges (current level)
//	pxmld.http_latency.p99_ms:8.1|g timer percentiles, exported as gauges
//
// Counters are sent as deltas so the sink can sum across restarts;
// timers flatten to .count/.mean_ms/.p50_ms/.p95_ms/.p99_ms/.max_ms
// gauges, which is how percentile sketches travel over plain StatsD
// without a histogram extension.
//
// Over TCP (Network "tcp") the exporter instead speaks the Graphite
// plaintext protocol — "name value unix_ts\n" — and batches the whole
// registry, timer percentiles included, into one buffer written with a
// single conn.Write per flush. Large registries (hundreds of
// per-endpoint and per-shape timers) would otherwise fragment into many
// MTU-sized packets and many small writes; one buffered write keeps the
// flush O(1) syscalls and lets the sink ingest the batch atomically.
// Counters are sent cumulative on TCP, the Graphite convention (derive
// rates at query time with nonNegativeDerivative).
package telemetry

import (
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pxml/internal/logging"
	"pxml/internal/metrics"
)

// maxDatagram bounds one UDP payload. 1400 stays under the common
// 1500-byte Ethernet MTU with headroom for IP/UDP headers, so flushes
// are never silently truncated by fragmentation loss.
const maxDatagram = 1400

// Config assembles an Exporter.
type Config struct {
	// Addr is the sink's host:port. Required.
	Addr string
	// Network is "udp" (default) or "tcp".
	Network string
	// Prefix namespaces every metric name; default "pxmld".
	Prefix string
	// Interval between flushes; default 10s, minimum 10ms.
	Interval time.Duration
	// Registry is the metric source. Required.
	Registry *metrics.Registry
	// Sample, when set, runs before each flush snapshot — the hook for
	// metrics.SampleRuntime so OS/runtime gauges are current on every
	// flush without the server polling separately.
	Sample func()
	// Dial overrides net.Dial, the seam for fault injection in tests.
	Dial func(network, addr string) (net.Conn, error)
	// DialTimeout bounds one dial attempt; default 2s.
	DialTimeout time.Duration
	// Logger records connection transitions (never per-flush chatter),
	// tagged component=telemetry; nil discards them.
	Logger *slog.Logger

	// nowUnix stubs the Graphite line timestamp in tests.
	nowUnix func() int64
}

// Exporter owns the flush loop. Create with New, start with Start, stop
// with Stop (which attempts one final flush).
type Exporter struct {
	cfg  Config
	mu   sync.Mutex // guards conn, last, and Flush itself
	conn net.Conn
	last map[string]int64 // counter values at previous flush, for deltas

	// Self-observation lives in the same registry it exports, so the
	// sink (and /v1/metrics) sees the exporter's own health.
	flushes *metrics.Counter
	drops   *metrics.Counter
	bytes   *metrics.Counter

	stop chan struct{}
	done chan struct{}
}

// New validates cfg and returns an unstarted exporter.
func New(cfg Config) (*Exporter, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("telemetry: sink address required")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("telemetry: registry required")
	}
	if cfg.Network == "" {
		cfg.Network = "udp"
	}
	if cfg.Network != "udp" && cfg.Network != "tcp" {
		return nil, fmt.Errorf("telemetry: network %q not supported (udp or tcp)", cfg.Network)
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "pxmld"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.Interval < 10*time.Millisecond {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.nowUnix == nil {
		cfg.nowUnix = func() int64 { return time.Now().Unix() }
	}
	cfg.Logger = logging.OrDiscard(cfg.Logger).With("component", "telemetry")
	return &Exporter{
		cfg:     cfg,
		last:    make(map[string]int64),
		flushes: cfg.Registry.Counter("telemetry_flushes"),
		drops:   cfg.Registry.Counter("telemetry_dropped_flushes"),
		bytes:   cfg.Registry.Counter("telemetry_bytes"),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// Start launches the flush loop.
func (e *Exporter) Start() {
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.Flush()
			case <-e.stop:
				return
			}
		}
	}()
}

// Stop halts the loop, attempts one final flush, and closes the
// connection. Safe to call once.
func (e *Exporter) Stop() {
	close(e.stop)
	<-e.done
	e.Flush()
	e.mu.Lock()
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
	e.mu.Unlock()
}

// Flush snapshots the registry and pushes one batch to the sink. Any
// dial or write failure drops the batch (counted in
// telemetry_dropped_flushes) and resets the connection for the next
// attempt; it never blocks beyond the dial timeout and never panics the
// caller. Exposed for the smoke harness; the loop calls it on each tick.
func (e *Exporter) Flush() {
	if e.cfg.Sample != nil {
		e.cfg.Sample()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var packets [][]byte
	if e.cfg.Network == "tcp" {
		// One Graphite plaintext batch, one write: large registries flush
		// in a single syscall instead of one write per MTU-sized packet.
		payload := e.collectGraphite(e.cfg.nowUnix())
		if len(payload) == 0 {
			return
		}
		packets = [][]byte{payload}
	} else {
		lines := e.collect()
		if len(lines) == 0 {
			return
		}
		packets = packLines(lines, e.payloadLimit())
	}
	if e.conn == nil {
		conn, err := e.dial()
		if err != nil {
			e.drops.Inc()
			return
		}
		e.conn = conn
	}
	sent := 0
	for _, packet := range packets {
		n, err := e.conn.Write(packet)
		if err != nil {
			e.conn.Close()
			e.conn = nil
			e.drops.Inc()
			e.cfg.Logger.Warn("telemetry sink write failed; dropping flush",
				"addr", e.cfg.Addr, "error", err)
			return
		}
		sent += n
	}
	e.flushes.Inc()
	e.bytes.Add(int64(sent))
}

// payloadLimit: UDP flushes must fit datagrams; TCP is a stream.
func (e *Exporter) payloadLimit() int {
	if e.cfg.Network == "udp" {
		return maxDatagram
	}
	return 1 << 20
}

func (e *Exporter) dial() (net.Conn, error) {
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := e.cfg.Dial(e.cfg.Network, e.cfg.Addr)
		ch <- result{c, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			e.cfg.Logger.Warn("telemetry sink unreachable; dropping flush",
				"addr", e.cfg.Addr, "error", r.err)
		}
		return r.conn, r.err
	case <-time.After(e.cfg.DialTimeout):
		// Abandon the dial; if it eventually succeeds the connection is
		// closed by the goroutine to avoid a leak.
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
		return nil, fmt.Errorf("telemetry: dial %s %s: timeout", e.cfg.Network, e.cfg.Addr)
	}
}

// collect renders the registry into statsd lines (caller holds e.mu).
// Lines are sorted so packet layout is deterministic for tests.
func (e *Exporter) collect() []string {
	var lines []string
	reg := e.cfg.Registry
	reg.EachCounter(func(name string, v int64) {
		delta := v - e.last[name]
		e.last[name] = v
		if delta != 0 {
			lines = append(lines, e.line(name, strconv.FormatInt(delta, 10), "c"))
		}
	})
	reg.EachGauge(func(name string, v int64) {
		lines = append(lines, e.line(name, strconv.FormatInt(v, 10), "g"))
	})
	reg.EachTimer(func(name string, t *metrics.Timer) {
		s := t.Snapshot()
		if s.Count == 0 {
			return
		}
		lines = append(lines,
			e.line(name+".count", strconv.FormatInt(s.Count, 10), "g"),
			e.line(name+".mean_ms", formatFloat(s.MeanMS), "g"),
			e.line(name+".p50_ms", formatFloat(s.P50MS), "g"),
			e.line(name+".p95_ms", formatFloat(s.P95MS), "g"),
			e.line(name+".p99_ms", formatFloat(s.P99MS), "g"),
			e.line(name+".max_ms", formatFloat(s.MaxMS), "g"),
		)
	})
	reg.EachIntHistogram(func(name string, h *metrics.IntHistogram) {
		s := h.Snapshot()
		if s.Count == 0 {
			return
		}
		lines = append(lines,
			e.line(name+".count", strconv.FormatInt(s.Count, 10), "g"),
			e.line(name+".mean", formatFloat(s.Mean), "g"),
			e.line(name+".max", strconv.FormatInt(s.Max, 10), "g"),
		)
	})
	sort.Strings(lines)
	return lines
}

// collectGraphite renders the whole registry as one Graphite plaintext
// batch: "prefix.name value ts\n" per metric, sorted by name (caller
// holds e.mu). Counters are cumulative — the Graphite convention —
// which also makes the batch idempotent: a retried flush after a
// dropped one loses no counts.
func (e *Exporter) collectGraphite(ts int64) []byte {
	var lines []string
	reg := e.cfg.Registry
	stamp := strconv.FormatInt(ts, 10)
	add := func(name, value string) {
		lines = append(lines, e.cfg.Prefix+"."+sanitize(name)+" "+value+" "+stamp)
	}
	reg.EachCounter(func(name string, v int64) {
		add(name, strconv.FormatInt(v, 10))
	})
	reg.EachGauge(func(name string, v int64) {
		add(name, strconv.FormatInt(v, 10))
	})
	reg.EachTimer(func(name string, t *metrics.Timer) {
		s := t.Snapshot()
		if s.Count == 0 {
			return
		}
		add(name+".count", strconv.FormatInt(s.Count, 10))
		add(name+".mean_ms", formatFloat(s.MeanMS))
		add(name+".p50_ms", formatFloat(s.P50MS))
		add(name+".p95_ms", formatFloat(s.P95MS))
		add(name+".p99_ms", formatFloat(s.P99MS))
		add(name+".max_ms", formatFloat(s.MaxMS))
	})
	reg.EachIntHistogram(func(name string, h *metrics.IntHistogram) {
		s := h.Snapshot()
		if s.Count == 0 {
			return
		}
		add(name+".count", strconv.FormatInt(s.Count, 10))
		add(name+".mean", formatFloat(s.Mean))
		add(name+".max", strconv.FormatInt(s.Max, 10))
	})
	if len(lines) == 0 {
		return nil
	}
	sort.Strings(lines)
	// One buffer, newline-terminated lines (Graphite requires the
	// trailing newline on the last line too).
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func (e *Exporter) line(name, value, kind string) string {
	return e.cfg.Prefix + "." + sanitize(name) + ":" + value + "|" + kind
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// sanitize maps a registry name onto the statsd/graphite-safe charset:
// [A-Za-z0-9_.-], everything else becomes '_'. Dots are kept — registry
// names use them for hierarchy (http_latency.query), which graphite
// renders as a tree.
func sanitize(name string) string {
	clean := true
	for i := 0; i < len(name); i++ {
		if !safeByte(name[i]) {
			clean = false
			break
		}
	}
	if clean {
		return name
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		if safeByte(name[i]) {
			b.WriteByte(name[i])
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func safeByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '_' || c == '.' || c == '-':
		return true
	}
	return false
}

// packLines joins lines into newline-separated payloads of at most limit
// bytes each (a single oversized line still ships alone rather than
// being dropped).
func packLines(lines []string, limit int) [][]byte {
	var packets [][]byte
	var cur []byte
	for _, l := range lines {
		need := len(l)
		if len(cur) > 0 {
			need++ // newline separator
		}
		if len(cur) > 0 && len(cur)+need > limit {
			packets = append(packets, cur)
			cur = nil
		}
		if len(cur) > 0 {
			cur = append(cur, '\n')
		}
		cur = append(cur, l...)
	}
	if len(cur) > 0 {
		packets = append(packets, cur)
	}
	return packets
}
