package server

// Assembly of the GET /v1/metrics payload.

import (
	"context"
	"net/http"
	"runtime"
	"time"

	"pxml/internal/admission"
	"pxml/internal/govern"
)

// updateRuntimeGauges refreshes the Go runtime gauges in the server
// registry — heap occupancy, cumulative GC pause time, goroutine count —
// so /metrics always reports a current reading.
func (s *Server) updateRuntimeGauges() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("runtime_heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	s.reg.Gauge("runtime_heap_sys_bytes").Set(int64(ms.HeapSys))
	s.reg.Gauge("runtime_gc_pause_total_ns").Set(int64(ms.PauseTotalNs))
	s.reg.Gauge("runtime_num_gc").Set(int64(ms.NumGC))
	s.reg.Gauge("runtime_goroutines").Set(int64(runtime.NumGoroutine()))
}

// metricsSchemaVersion identifies the /v1/metrics payload layout.
// Bump it on any breaking change to section names or field meanings;
// additive fields inside sections do not require a bump. The section
// order below is part of the schema and is stable because the payload
// is a struct (encoding/json emits fields in declaration order).
const metricsSchemaVersion = 1

// metricsPayload is the GET /v1/metrics response. See docs/API.md.
type metricsPayload struct {
	SchemaVersion int                 `json:"schema_version"`
	UptimeS       float64             `json:"uptime_s"`
	Server        map[string]any      `json:"server"`
	Admission     *admission.Snapshot `json:"admission,omitempty"`
	Telemetry     *telemetryStatus    `json:"telemetry,omitempty"`
	Store         map[string]any      `json:"store,omitempty"`
	Replication   *replMetrics        `json:"replication,omitempty"`
	Governor      *governorStatus     `json:"governor,omitempty"`
	ResultCache   any                 `json:"result_cache"`
	Instances     map[string]any      `json:"instances"`
}

// governorStatus summarises the runaway-query protection for
// /v1/metrics: the configured per-query budget and the live
// circuit-breaker states, keyed <instance>.<shape>. Present only when
// either is enabled.
type governorStatus struct {
	QueryDeadlineS float64                         `json:"query_deadline_s,omitempty"`
	QueryMaxNodes  int64                           `json:"query_max_nodes,omitempty"`
	QueryMaxBytes  int64                           `json:"query_max_bytes,omitempty"`
	Breaker        map[string]govern.BreakerStatus `json:"breaker,omitempty"`
}

// telemetryStatus summarises the statsd exporter's configuration and
// delivery counters for /v1/metrics.
type telemetryStatus struct {
	Addr           string  `json:"addr"`
	Network        string  `json:"network"`
	IntervalS      float64 `json:"interval_s"`
	Flushes        int64   `json:"flushes"`
	DroppedFlushes int64   `json:"dropped_flushes"`
	Bytes          int64   `json:"bytes"`
}

func (s *Server) handleMetrics(_ context.Context, w http.ResponseWriter, r *http.Request) {
	s.updateRuntimeGauges()
	// Publish breaker states as gauges (closed=0, half-open=1, open=2),
	// keyed <instance>.<shape>, so the statsd stream and alerting see
	// transitions too.
	if s.breaker != nil {
		for key := range s.breaker.Status() {
			s.reg.Gauge("breaker_state." + key).Set(int64(s.breaker.StateOf(key)))
		}
	}
	// Built engines only: a version not queried yet has no engine and no
	// per-engine metrics to report.
	names := s.Names()
	insts := make(map[string]any, len(names))
	for _, name := range names {
		if sv, ok := s.built(name); ok {
			insts[name] = sv.eng.Metrics()
		}
	}
	payload := metricsPayload{
		SchemaVersion: metricsSchemaVersion,
		UptimeS:       time.Since(s.started).Seconds(),
		Server:        s.reg.Snapshot(),
		ResultCache:   s.results.Stats(),
		Instances:     insts,
	}
	if s.adm != nil {
		snap := s.adm.State()
		payload.Admission = &snap
	}
	if s.exp != nil {
		network := s.expCfg.Network
		if network == "" {
			network = "udp"
		}
		interval := s.expCfg.Interval
		if interval <= 0 {
			interval = 10 * time.Second
		}
		payload.Telemetry = &telemetryStatus{
			Addr:           s.expCfg.Addr,
			Network:        network,
			IntervalS:      interval.Seconds(),
			Flushes:        s.reg.Counter("telemetry_flushes").Value(),
			DroppedFlushes: s.reg.Counter("telemetry_dropped_flushes").Value(),
			Bytes:          s.reg.Counter("telemetry_bytes").Value(),
		}
	}
	if s.store.Durable() {
		payload.Store = map[string]any{
			"dir":       s.store.Dir(),
			"wal_bytes": s.store.WALSize(),
			"instances": s.store.Len(),
			"health":    s.store.Health(),
		}
	}
	payload.Replication = s.replSection()
	if !s.budget.IsZero() || s.breaker != nil {
		g := &governorStatus{
			QueryDeadlineS: s.budget.Deadline.Seconds(),
			QueryMaxNodes:  s.budget.MaxSteps,
			QueryMaxBytes:  s.budget.MaxBytes,
		}
		if s.breaker != nil {
			g.Breaker = s.breaker.Status()
		}
		payload.Governor = g
	}
	writeJSON(w, http.StatusOK, payload)
}
