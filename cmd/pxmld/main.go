// pxmld serves a catalog of probabilistic instances over HTTP — a small
// probabilistic semistructured database daemon. Instances can be uploaded,
// fetched, visualized and queried with pxql statements; instance-valued
// query results can be stored back into the catalog.
//
//	pxmld -addr :8080
//	pxmld -addr :8080 -data /var/lib/pxmld -fsync always
//	pxmld -addr :8080 -load bib=inst.pxml -load web=crawl.json
//	pxmld -addr :8080 -request-timeout 5s -max-inflight 256
//
// With -data, the catalog is durable: writes go through a write-ahead
// log with periodic snapshots (see internal/store), startup runs crash
// recovery, and -fsync/-snapshot-interval tune the durability/latency
// trade-off. Concurrent writes are group-committed: -commit-batch bounds
// how many mutations share one WAL write + fsync and -commit-delay lets
// the committer linger to fill a batch.
//
// Performance knobs: -query-workers bounds each engine's batch worker
// pool (default 8, not GOMAXPROCS, so many engines cannot over-subscribe
// the machine), and -pprof serves net/http/pprof on a separate loopback
// listener (off by default) for live profiling:
//
//	pxmld -addr :8080 -pprof 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile
//
// The mutex and block profiles served there are empty unless sampling is
// turned on: -mutex-profile-fraction n feeds
// runtime.SetMutexProfileFraction (1 = every contended mutex event) and
// -block-profile-rate n feeds runtime.SetBlockProfileRate (nanoseconds;
// 1 = every blocking event). Both default to off — sampling costs a few
// percent under contention — and exist to audit lock-free read-path
// claims against a live process:
//
//	pxmld -pprof 127.0.0.1:6060 -mutex-profile-fraction 1
//	go tool pprof http://127.0.0.1:6060/debug/pprof/mutex
//
// Runaway-query protection: -query-deadline, -query-max-nodes, and
// -query-max-bytes impose a per-statement resource budget enforced
// cooperatively inside the inference kernels — statements whose upfront
// cost estimate provably exceeds the budget are refused with 422
// (intractable) before allocating, and ones that trip the budget at
// runtime stop within one loop iteration and answer 503
// (budget_exceeded). -breaker-threshold arms a per-statement-shape
// circuit breaker on top: shapes that trip repeatedly shed instantly
// with 503 (breaker_open) until -breaker-cooldown passes, then a
// half-open probe (-breaker-probes) decides whether to reclose.
//
// The serving path is hardened: GET /healthz answers liveness, GET
// /readyz readiness (503 while draining or once the store degrades to
// read-only), -request-timeout bounds each API request, -max-inflight
// sheds excess load with 429 + Retry-After, and panics in handlers are
// turned into 500s without killing the process. On SIGINT/SIGTERM the
// daemon flips /readyz to 503, drains in-flight requests, then closes
// the store so the WAL is flushed before exit.
//
// Endpoints (see internal/server and docs/API.md; everything but the
// two probes lives under /v1, and any other path answers 404):
//
//	GET    /v1/instances
//	PUT    /v1/instances/{name}
//	GET    /v1/instances/{name}
//	DELETE /v1/instances/{name}
//	GET    /v1/instances/{name}/dot
//	POST   /v1/instances/{name}/query[?store=name]
//	POST   /v1/instances/{name}/batch
//	GET    /v1/metrics
//	POST   /v1/admin/backup
//	POST   /v1/admin/scrub
//	GET    /v1/admin/quotas, PUT /v1/admin/quotas
//	POST   /v1/admin/promote, POST /v1/admin/demote
//	GET    /v1/repl/stream, GET /v1/repl/bootstrap, GET /v1/repl/epoch
//	GET    /healthz
//	GET    /readyz
//
// Telemetry: -statsd-addr pushes counters, gauges, and p50/p95/p99 timer
// percentiles to a StatsD/Graphite sink every -statsd-interval; a dead
// sink never blocks the request path (flushes are dropped and counted).
// Admission control: -quota-default and repeated -quota flags impose
// per-instance token-bucket rate limits, and under overload the inflight
// capacity is shared fairly by quota weight; over-quota requests answer
// 429 with a Retry-After hint. Quotas can be reloaded at runtime via
// PUT /v1/admin/quotas.
//
// Operational durability: -segment-size rotates the WAL into numbered
// segments, -archive copies sealed segments into an archive directory
// (the raw material for point-in-time recovery with pxmlbackup),
// -scrub-interval re-verifies at-rest checksums in the background, and
// POST /v1/admin/backup cuts a consistent online backup while writes keep
// flowing. The backup endpoint is disabled unless -backup-dir names a
// directory; clients then request backups by name and the daemon places
// them in subdirectories of that root, so the HTTP API never accepts
// arbitrary server-side filesystem paths.
//
// Replication and failover: -follow runs the daemon as a read replica
// that bootstraps from and then tails the leader's WAL, redirecting
// writes there (see docs/API.md). POST /v1/admin/promote flips a
// follower into a leader under a new, durably persisted epoch; the
// superseded leader fences itself read-only (learning of the new era
// via demote notification, peer probes over -peers, or the epoch its
// followers echo on every pull) and redirects writers to the successor
// named by -advertise-url. -failover-priority arms automatic
// promotion after a leader-silence window (-failover-silence).
//
// Each instance is served through a query engine that caches its derived
// structures across queries; GET /v1/metrics exposes per-instance query
// and cache counters.
//
// One logger writes JSON records on stderr: requests, lifecycle, and the
// store's, replication's and telemetry's records (tagged "component").
// -quiet sets its level to Warn: request and routine records go,
// warnings and errors (a degraded store, a fence, a lost leader) stay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pxml"
	"pxml/internal/admission"
	"pxml/internal/repl"
	"pxml/internal/retry"
	"pxml/internal/server"
	"pxml/internal/store"
)

// loadFlags collects repeated -load name=file flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// parseQuota parses "rate:burst" or "rate:burst:weight" (requests per
// second, bucket capacity, fairness weight).
func parseQuota(spec string) (admission.Quota, error) {
	var q admission.Quota
	parts := strings.Split(spec, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return q, fmt.Errorf("quota %q: want rate:burst or rate:burst:weight", spec)
	}
	if _, err := fmt.Sscanf(parts[0], "%g", &q.Rate); err != nil {
		return q, fmt.Errorf("quota %q: bad rate: %w", spec, err)
	}
	if _, err := fmt.Sscanf(parts[1], "%g", &q.Burst); err != nil {
		return q, fmt.Errorf("quota %q: bad burst: %w", spec, err)
	}
	if len(parts) == 3 {
		if _, err := fmt.Sscanf(parts[2], "%g", &q.Weight); err != nil {
			return q, fmt.Errorf("quota %q: bad weight: %w", spec, err)
		}
	}
	return q, q.Validate()
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dataDir := flag.String("data", "", "persist the catalog to this directory via the WAL+snapshot store (instances survive restarts and crashes)")
	dataDirAlias := flag.String("datadir", "", "alias for -data (kept for compatibility)")
	fsyncPolicy := flag.String("fsync", "always", "WAL flush policy: always, interval, or never")
	snapshotEvery := flag.Duration("snapshot-interval", 0, "snapshot the catalog and reset the WAL on this period (0 = size-triggered only)")
	quiet := flag.Bool("quiet", false, "log at Warn level: drop request and routine records, keep warnings and errors")
	maxBody := flag.Int64("maxbody", 0, "instance upload size limit in bytes (0 = default 64MiB)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline for API requests; expired requests answer 503 (0 = no deadline)")
	maxInflight := flag.Int("max-inflight", 0, "maximum concurrent API requests before shedding with 429 (0 = unlimited)")
	queryWorkers := flag.Int("query-workers", 0, "per-engine batch query worker bound (0 = the engine default, 8)")
	queryDeadline := flag.Duration("query-deadline", 0, "per-statement evaluation deadline inside the query engines (0 = none; -request-timeout still bounds the whole request)")
	queryMaxNodes := flag.Int64("query-max-nodes", 0, "per-statement work-unit budget: objects visited, OPF entries scanned, factor cells filled, samples drawn; provably-over-budget statements are refused upfront with 422 (0 = unlimited)")
	queryMaxBytes := flag.Int64("query-max-bytes", 0, "per-statement inference allocation budget in bytes (factor tables, enumeration state); 0 = unlimited")
	breakerThreshold := flag.Int("breaker-threshold", 0, "open the per-statement-shape circuit breaker after this many consecutive budget trips; tripped shapes shed with 503 breaker_open (0 = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker rejects before probing again (0 = default 10s)")
	breakerProbes := flag.Int("breaker-probes", 0, "trial statements a half-open breaker admits; that many successes reclose it (0 = default 1)")
	commitBatch := flag.Int("commit-batch", 0, "max mutations coalesced into one WAL write+fsync (0 = default, 1 = no batching)")
	commitDelay := flag.Duration("commit-delay", 0, "how long the committer lingers to fill a batch (0 = commit as soon as the queue drains)")
	segmentSize := flag.Int64("segment-size", 0, "WAL segment rotation threshold in bytes (0 = default 1MiB, negative = rotate only on compaction)")
	archiveDir := flag.String("archive", "", "archive sealed WAL segments into this directory for point-in-time recovery (see pxmlbackup)")
	archiveRetention := flag.Int("archive-retention", 0, "keep at most this many archived segments, oldest pruned first (0 = keep all)")
	backupDir := flag.String("backup-dir", "", "enable POST /v1/admin/backup and confine its destinations to subdirectories of this directory (empty = endpoint disabled)")
	scrubInterval := flag.Duration("scrub-interval", 0, "verify one at-rest store file's checksums on this cadence; corruption degrades to read-only (0 = off)")
	quarantineMax := flag.Int("quarantine-max", 0, "keep at most this many quarantined corrupt-region files (0 = default 64, negative = unbounded)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this loopback address, e.g. 127.0.0.1:6060 (empty = off)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events into /debug/pprof/mutex (0 = off, 1 = all)")
	blockRate := flag.Int("block-profile-rate", 0, "sample goroutine blocking events >= n ns into /debug/pprof/block (0 = off, 1 = all)")
	statsdAddr := flag.String("statsd-addr", "", "push metrics to this StatsD/Graphite sink (host:port; empty = off)")
	statsdInterval := flag.Duration("statsd-interval", 10*time.Second, "telemetry flush period")
	statsdNetwork := flag.String("statsd-network", "udp", "telemetry transport: udp or tcp")
	statsdPrefix := flag.String("statsd-prefix", "", "metric name prefix (empty = pxmld)")
	quotaDefault := flag.String("quota-default", "", "default per-instance admission quota as rate:burst[:weight] in requests/second (empty = unlimited)")
	adminToken := flag.String("admin-token", "", "require this bearer token on /v1/admin/* and /v1/repl/* (empty = open)")
	followLeader := flag.String("follow", "", "run as a read replica of the leader at this base URL (e.g. http://leader:8080); requires -data")
	followToken := flag.String("follow-token", "", "bearer token for the leader's replication endpoints (default: the -admin-token value)")
	replMaxStaleness := flag.Duration("repl-max-staleness", 0, "follower readiness threshold: /readyz answers 503 once replicated data is staler than this (0 = default 10s)")
	advertiseURL := flag.String("advertise-url", "", "base URL peers should use to reach this node (redirect targets and demote notifications after failover)")
	peersFlag := flag.String("peers", "", "comma-separated base URLs of the other cluster nodes; a leader probes them for higher epochs at startup and on a timer (split-brain guard)")
	failoverPriority := flag.Int("failover-priority", 0, "auto-promote this follower after the leader is silent for priority x failover-silence (0 = manual promotion only; requires -follow)")
	failoverSilence := flag.Duration("failover-silence", 0, "one leader-silence window for the failover monitor (0 = default 15s)")
	var quotaSpecs loadFlags
	flag.Var(&quotaSpecs, "quota", "per-instance admission quota: name=rate:burst[:weight] (repeatable)")
	var loads loadFlags
	flag.Var(&loads, "load", "preload an instance: name=file (repeatable)")
	flag.Parse()

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	fatal := func(err error) {
		logger.Error("exiting", "error", err)
		os.Exit(1)
	}

	if *dataDir == "" {
		*dataDir = *dataDirAlias
	}
	if *followToken == "" {
		*followToken = *adminToken
	}
	cfg := server.Config{
		Logger:           logger,
		MaxBody:          *maxBody,
		RequestTimeout:   *reqTimeout,
		MaxInflight:      *maxInflight,
		QueryWorkers:     *queryWorkers,
		QueryDeadline:    *queryDeadline,
		QueryMaxNodes:    *queryMaxNodes,
		QueryMaxBytes:    *queryMaxBytes,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		BreakerProbes:    *breakerProbes,
		BackupRoot:       *backupDir,
		StatsdAddr:       *statsdAddr,
		StatsdNetwork:    *statsdNetwork,
		StatsdInterval:   *statsdInterval,
		StatsdPrefix:     *statsdPrefix,
		AdminToken:       *adminToken,
		FollowLeader:     *followLeader,
		FollowToken:      *followToken,
		ReplMaxStaleness: *replMaxStaleness,
		AdvertiseURL:     *advertiseURL,
		FailoverPriority: *failoverPriority,
		FailoverSilence:  *failoverSilence,
	}
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if *quotaDefault != "" {
		q, err := parseQuota(*quotaDefault)
		if err != nil {
			fatal(err)
		}
		cfg.DefaultQuota = q
	}
	for _, spec := range quotaSpecs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -quota %q (want name=rate:burst[:weight])", spec))
		}
		q, err := parseQuota(rest)
		if err != nil {
			fatal(err)
		}
		if cfg.TenantQuotas == nil {
			cfg.TenantQuotas = make(map[string]admission.Quota)
		}
		cfg.TenantQuotas[name] = q
	}
	if *dataDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			fatal(err)
		}
		cfg.StoreDir = *dataDir
		cfg.StoreOptions = store.Options{
			Fsync:            policy,
			SnapshotInterval: *snapshotEvery,
			CommitBatch:      *commitBatch,
			CommitDelay:      *commitDelay,
			SegmentSize:      *segmentSize,
			ArchiveDir:       *archiveDir,
			ArchiveRetention: *archiveRetention,
			ScrubInterval:    *scrubInterval,
			QuarantineMax:    *quarantineMax,
		}
	}
	if *followLeader != "" {
		if *dataDir == "" {
			fatal(fmt.Errorf("-follow requires -data (the replica's local WAL mirror)"))
		}
		// A fresh replica bootstraps from a leader backup before serving;
		// a replica with existing data resumes the stream from its
		// recovered position.
		entries, err := os.ReadDir(*dataDir)
		if err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
		if len(entries) == 0 {
			logger.Info("bootstrapping replica", "leader", *followLeader)
			client := &repl.Client{BaseURL: *followLeader, Token: *followToken, Retry: retry.Default}
			res, err := client.Bootstrap(context.Background(), *dataDir)
			if err != nil {
				fatal(err)
			}
			logger.Info("bootstrap complete", "instances", res.Instances, "pos", res.Pos.String())
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *followLeader != "" {
		logger.Info("read replica: writes 307-route to the leader; readyz gates on staleness", "leader", *followLeader)
	}
	if *statsdAddr != "" {
		logger.Info("telemetry", "network", *statsdNetwork, "addr", *statsdAddr, "interval", statsdInterval.String())
	}
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr, logger); err != nil {
			fatal(err)
		}
		if *mutexFraction > 0 || *blockRate > 0 {
			logger.Info("pprof sampling", "mutex_fraction", *mutexFraction, "block_rate", *blockRate)
		}
	}
	for _, spec := range loads {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -load %q (want name=file)", spec))
		}
		f, err := os.Open(file)
		if err != nil {
			fatal(err)
		}
		var pi *pxml.ProbInstance
		if strings.HasSuffix(file, ".json") {
			pi, err = pxml.DecodeJSON(f)
		} else {
			pi, err = pxml.DecodeText(f)
		}
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", file, err))
		}
		if err := srv.Put(name, pi); err != nil {
			fatal(fmt.Errorf("storing %s: %w", name, err))
		}
		logger.Info("loaded", "instance", name, "file", file, "objects", pi.NumObjects())
	}
	// WriteTimeout must outlast the per-request deadline so slow requests
	// are answered with a 503 body instead of a snapped connection.
	writeTimeout := 5 * time.Minute
	if *reqTimeout > 0 {
		writeTimeout = *reqTimeout + 30*time.Second
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	// On SIGINT/SIGTERM: flip /readyz to 503 so load balancers stop
	// routing here, drain in-flight requests, and only then close the
	// store so the WAL is flushed before exit.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.SetDraining(true)
		logger.Info("draining; readyz now 503")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "error", err)
		}
		close(idle)
	}()
	logger.Info("listening", "addr", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-idle
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// servePprof starts the debug profiling listener on addr, which must be
// loopback: the pprof endpoints expose heap contents and must never ride
// on the public API listener or an external interface.
func servePprof(addr string, logger *slog.Logger) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return fmt.Errorf("-pprof %q: refusing non-loopback address", addr)
	}
	// A private mux with explicit routes keeps the profiler off the API
	// handler (importing net/http/pprof only registers on the default mux).
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof %q: %w", addr, err)
	}
	logger.Info("pprof listening", "url", "http://"+ln.Addr().String()+"/debug/pprof/")
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logger.Error("pprof listener stopped", "error", err)
		}
	}()
	return nil
}
