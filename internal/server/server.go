// Package server exposes a catalog of named probabilistic instances over
// HTTP, turning the PXML library into a small probabilistic
// semistructured database service:
//
//	GET    /v1/instances               list instances with summary stats
//	PUT    /v1/instances/{name}        store an instance (text or JSON body)
//	GET    /v1/instances/{name}        fetch an instance (Accept: application/json for JSON)
//	DELETE /v1/instances/{name}        drop an instance
//	GET    /v1/instances/{name}/dot    Graphviz rendering of the weak graph
//	POST   /v1/instances/{name}/query  execute one pxql statement (text body);
//	                                   ?store=<new> keeps an instance-valued
//	                                   result in the catalog under that name
//	POST   /v1/instances/{name}/batch  execute many statements (one per line)
//	                                   concurrently over the engine's pool
//	GET    /v1/metrics                 JSON snapshot: server counters plus
//	                                   per-instance engine metrics
//	POST   /v1/admin/backup            cut an online backup of the durable
//	                                   store into a subdirectory of the
//	                                   configured backup root (403 without
//	                                   Config.BackupRoot / pxmld -backup-dir)
//	POST   /v1/admin/scrub             synchronous checksum scrub of the
//	                                   store's at-rest files
//	GET    /healthz                    liveness: 200 while the process runs
//	GET    /readyz                     readiness: 503 while draining or the
//	                                   store is degraded
//
// (routes lists every route, including quotas, failover and replication.)
// Query responses are JSON: {"text": ..., "prob": ..., "stored": ...}.
// Errors are the v1 envelope {"error": {"code", "message"}} with the
// matching status code (400 malformed, 404 unknown, 413 oversized body,
// 422 invalid instance or failing statement, 429 shed under overload with
// Retry-After, 503 for expired request deadlines and writes against a
// degraded store).
//
// The handler stack is hardened for production traffic: a panic in any
// handler is recovered to a 500 (and counted), Config.RequestTimeout
// bounds each request with a context deadline, and Config.MaxInflight
// sheds excess concurrent requests with 429 + Retry-After instead of
// queueing without bound. Health probes bypass the limiter so liveness
// checks still answer under overload. When the backing store degrades
// (unrecoverable disk errors), writes fail fast with 503 while reads and
// queries keep serving from memory — the catalog never silently diverges
// from disk.
//
// Each stored instance is wrapped in an engine.Engine, so repeated queries
// against the same instance reuse its cached path index, compiled Bayesian
// network, and marginals, and every request is counted in that engine's
// metrics. The catalog is safe for concurrent use; instances are immutable
// once stored (queries never mutate their input — algebra results are
// fresh instances).
package server

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pxml/internal/admission"
	"pxml/internal/core"
	"pxml/internal/engine"
	"pxml/internal/govern"
	"pxml/internal/logging"
	"pxml/internal/metrics"
	"pxml/internal/pxql"
	"pxml/internal/rescache"
	"pxml/internal/store"
	"pxml/internal/telemetry"
)

// defaultMaxBody bounds instance-upload bodies unless Config.MaxBody overrides.
const defaultMaxBody = 64 << 20

// defaultResultCacheBytes bounds the shared query-result cache.
const defaultResultCacheBytes = 32 << 20

// maxStatementBytes bounds a single pxql statement (or batch) body.
const maxStatementBytes = 1 << 20

// Server is a concurrency-safe catalog of named query engines, held in
// a store: durable with Config.StoreDir, in memory without. Everything
// Config sets is fixed at construction.
type Server struct {
	// store's catalog is the only catalog: each name's engine is memoized
	// on its current catalog entry (store.Memo), so it lives exactly as
	// long as the version it was built from.
	store      *store.Store // durable with Config.StoreDir, memory-only (store.OpenMemory) without
	backupRoot string       // /v1/admin/backup destination root; "" = endpoint disabled
	maxBody    int64
	log        *slog.Logger

	// results memoizes scalar query answers across all instances; each
	// engine's keys carry its name and catalog version, so entries for a
	// replaced instance are unreachable from its successor's engine.
	results      *rescache.Cache
	queryWorkers int // batch worker bound per engine; 0 = engine default

	started    time.Time
	draining   atomic.Bool
	reqTimeout time.Duration // per-request deadline; 0 = none
	sem        chan struct{} // in-flight limiter; nil = unlimited

	reg      *metrics.Registry
	requests *metrics.Counter
	errors   *metrics.Counter
	shed     *metrics.Counter
	panics   *metrics.Counter
	inflight *metrics.Gauge
	latency  *metrics.Timer

	shapeLatency        perShape[metrics.Timer]        // pxql_latency.<shape>
	costEst, costActual perShape[metrics.IntHistogram] // query_cost_{est,actual}_steps.<shape>

	// Runaway-query protection: budget is the per-query resource
	// envelope every engine enforces; breaker sheds statement shapes
	// that repeatedly trip it (nil = disabled).
	budget      govern.Budget
	breaker     *govern.Breaker
	qBudget     *metrics.Counter // query_budget_exceeded
	qIntract    *metrics.Counter // query_intractable
	qCancel     *metrics.Counter // query_cancelled
	qPanic      *metrics.Counter // query_panics
	breakerShed *metrics.Counter // breaker_shed

	adm    *admission.Controller // per-tenant admission; nil = admit all
	exp    *telemetry.Exporter   // statsd push loop; nil unless configured
	expCfg telemetry.Config      // for the /v1/metrics telemetry section
	report *store.RecoveryReport // crash-recovery report from Config.StoreDir

	adminToken string                        // bearer token over /v1/admin/* and /v1/repl/*; "" = open
	follower   atomic.Pointer[followerState] // replication machinery; nil unless following (promotion retires it live)

	// Failover state (see failover.go). cfg keeps the construction-time
	// config so a rolled-back promotion can rebuild the follower loop.
	cfg           Config
	promoteMu     sync.Mutex // serializes PromoteSelf
	advertiseURL  string     // this node's base URL, told to peers/old leader
	peers         []string   // peer base URLs for the epoch probe
	outboundToken string     // bearer for outbound probe/demote calls
	probeInterval time.Duration
	proberMu      sync.Mutex
	proberCancel  context.CancelFunc
	proberDone    chan struct{}
}

// Config collects every construction-time knob in one validated place.
// The zero value is a fully working in-memory server: defaults are
// applied by New, and invalid combinations (negative limits, unusable
// quotas, a bad telemetry address) are rejected there rather than
// surfacing as misbehavior at serve time.
type Config struct {
	// StoreDir enables the durable log-structured store in this
	// directory: writes go through a write-ahead log with periodic
	// snapshots, and New runs crash recovery (replaying snapshot-then-WAL,
	// quarantining corrupt records, truncating torn tails; see
	// RecoveryReport). A directory in a retired layout (a wal.log or
	// top-level <name>.pxml files) fails New with store.ErrRetiredLayout.
	// Names are restricted to [A-Za-z0-9_-]+ to keep durable artifacts
	// unambiguous.
	StoreDir string
	// StoreOptions tunes the durable store; only read with StoreDir. A
	// nil Registry or Logger becomes the server's own.
	StoreOptions store.Options

	// Logger receives request and lifecycle records; the store (unless
	// StoreOptions.Logger is set), telemetry and replication share it.
	// nil discards.
	Logger *slog.Logger
	// MaxBody bounds instance-upload bodies in bytes; 0 means 64 MiB.
	MaxBody int64
	// RequestTimeout bounds each API request with a context deadline;
	// 0 disables.
	RequestTimeout time.Duration
	// MaxInflight caps concurrently served API requests; excess sheds
	// with 429. 0 disables. Also the capacity the admission tier's
	// fairness divides.
	MaxInflight int
	// QueryWorkers bounds each engine's batch pool; 0 = engine default.
	QueryWorkers int

	// QueryDeadline bounds one statement's evaluation wall clock inside
	// the engines (independent of RequestTimeout, which covers the whole
	// HTTP exchange); 0 disables.
	QueryDeadline time.Duration
	// QueryMaxNodes bounds the cooperative work units (objects visited,
	// OPF entries scanned, factor cells filled, worlds sampled) one
	// statement may spend; 0 disables. Statements whose upfront cost
	// estimate provably exceeds it are refused before allocating.
	QueryMaxNodes int64
	// QueryMaxBytes bounds the approximate bytes one statement may
	// allocate for inference state (factor tables); 0 disables.
	QueryMaxBytes int64
	// BreakerThreshold arms the per-statement-shape circuit breaker:
	// after this many consecutive budget trips of one shape, further
	// statements of that shape shed with 503 breaker_open until the
	// cooldown passes; 0 disables.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before probing
	// again (0 = 10s). Read only with BreakerThreshold > 0.
	BreakerCooldown time.Duration
	// BreakerProbes is how many concurrent trial statements a half-open
	// breaker admits, and how many must succeed to reclose (0 = 1).
	BreakerProbes int
	// BackupRoot enables POST /v1/admin/backup confined to this root.
	BackupRoot string
	// ResultCacheBytes bounds the shared query-result cache; 0 = 32 MiB.
	ResultCacheBytes int64

	// DefaultQuota applies to every tenant (instance name) without an
	// entry in TenantQuotas. Zero = unlimited.
	DefaultQuota admission.Quota
	// TenantQuotas maps instance names to per-tenant quotas.
	TenantQuotas map[string]admission.Quota

	// StatsdAddr enables the telemetry push loop to this host:port.
	StatsdAddr string
	// StatsdNetwork is "udp" (default) or "tcp".
	StatsdNetwork string
	// StatsdInterval is the flush period; 0 = 10s.
	StatsdInterval time.Duration
	// StatsdPrefix namespaces exported metric names; "" = "pxmld".
	StatsdPrefix string

	// AdminToken, when non-empty, gates /v1/admin/* and /v1/repl/*
	// behind "Authorization: Bearer <token>" (401 otherwise). The
	// replication surface exposes the entire WAL, so set this on any
	// leader reachable beyond its own replicas.
	AdminToken string
	// FollowLeader runs this server as a read replica of the leader at
	// this base URL (e.g. "http://leader:8080"): the store opens in
	// follower mode (local writes 307-route to the leader), a background
	// puller replays the leader's WAL stream, and /readyz gates on
	// replication staleness. Requires StoreDir.
	FollowLeader string
	// FollowToken is the bearer token presented to the leader's
	// replication endpoints (matching the leader's AdminToken).
	FollowToken string
	// ReplMaxStaleness is how stale a follower may get before /readyz
	// flips not-ready; 0 means 10s. Ignored unless FollowLeader is set.
	ReplMaxStaleness time.Duration
	// ReplPollWait is the long-poll duration the follower requests from
	// the leader's stream (0 means 2s). A caught-up follower's freshness
	// reading is only confirmed once per poll, so keep this comfortably
	// below ReplMaxStaleness. Ignored unless FollowLeader is set.
	ReplPollWait time.Duration

	// AdvertiseURL is this node's own base URL as peers should reach it
	// (e.g. "http://10.0.0.2:8080"). A promoted leader hands it to the
	// demoted one and to probing peers so their write redirects land
	// here. Optional; without it a fenced old leader rejects writes
	// instead of redirecting them.
	AdvertiseURL string
	// Peers lists the other cluster nodes' base URLs for the epoch
	// probe. A node that starts as (or becomes) leader asks each peer
	// for its epoch — once before serving any write, then every
	// ProbeInterval — and fences itself if any peer has seen a higher
	// one. This is what stops a rebooted old leader from accepting
	// writes into a superseded era.
	Peers []string
	// FailoverPriority, when >= 1, arms the failover monitor on this
	// follower: after the leader has been silent for
	// FailoverSilence×priority, the node promotes itself (force
	// semantics). Lower numbers act first; 0 disables. Requires
	// FollowLeader.
	FailoverPriority int
	// FailoverSilence is one leader-silence window for the monitor
	// (0 means 15s).
	FailoverSilence time.Duration
	// ProbeInterval paces the periodic peer epoch probe on a leader
	// (0 means 5s). Ignored without Peers.
	ProbeInterval time.Duration
}

// New builds a server from cfg, applying defaults and validating the
// rest. The telemetry flush loop (if configured) starts immediately;
// Close stops it.
func New(cfg Config) (*Server, error) {
	if cfg.FollowLeader != "" && cfg.StoreDir == "" {
		return nil, fmt.Errorf("server: FollowLeader requires StoreDir (the replica's WAL mirror)")
	}
	if cfg.FailoverPriority < 0 {
		return nil, fmt.Errorf("server: FailoverPriority must be >= 0")
	}
	if cfg.FailoverPriority > 0 && cfg.FollowLeader == "" {
		return nil, fmt.Errorf("server: FailoverPriority requires FollowLeader (only a follower can be a failover candidate)")
	}
	if cfg.QueryDeadline < 0 || cfg.QueryMaxNodes < 0 || cfg.QueryMaxBytes < 0 {
		return nil, fmt.Errorf("server: query budget limits must be >= 0 (0 disables)")
	}
	if cfg.BreakerThreshold < 0 || cfg.BreakerCooldown < 0 || cfg.BreakerProbes < 0 {
		return nil, fmt.Errorf("server: breaker settings must be >= 0 (0 disables/defaults)")
	}
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	cacheBytes := cfg.ResultCacheBytes
	if cacheBytes <= 0 {
		cacheBytes = defaultResultCacheBytes
	}
	s := &Server{
		maxBody:    maxBody,
		backupRoot: cfg.BackupRoot,
		log:        logging.OrDiscard(cfg.Logger),
		started:    time.Now(),
		reg:        metrics.NewRegistry(),
		results:    rescache.New(cacheBytes),
	}
	s.requests = s.reg.Counter("http_requests")
	s.errors = s.reg.Counter("http_errors")
	s.shed = s.reg.Counter("http_shed")
	s.panics = s.reg.Counter("http_panics")
	s.inflight = s.reg.Gauge("http_inflight")
	s.latency = s.reg.Timer("http_latency")
	s.qBudget = s.reg.Counter("query_budget_exceeded")
	s.qIntract = s.reg.Counter("query_intractable")
	s.qCancel = s.reg.Counter("query_cancelled")
	s.qPanic = s.reg.Counter("query_panics")
	s.breakerShed = s.reg.Counter("breaker_shed")
	s.shapeLatency.prefix, s.shapeLatency.lookup = "pxql_latency.", s.reg.Timer
	s.costEst.prefix, s.costEst.lookup = "query_cost_est_steps.", s.reg.IntHistogram
	s.costActual.prefix, s.costActual.lookup = "query_cost_actual_steps.", s.reg.IntHistogram
	s.budget = govern.Budget{
		Deadline: cfg.QueryDeadline,
		MaxSteps: cfg.QueryMaxNodes,
		MaxBytes: cfg.QueryMaxBytes,
	}
	s.breaker = govern.NewBreaker(govern.BreakerConfig{
		Threshold: cfg.BreakerThreshold,
		Cooldown:  cfg.BreakerCooldown,
		Probes:    cfg.BreakerProbes,
	})
	if cfg.RequestTimeout > 0 {
		s.reqTimeout = cfg.RequestTimeout
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.QueryWorkers > 0 {
		s.queryWorkers = cfg.QueryWorkers
	}

	adm, err := admission.New(admission.Config{
		Default:       cfg.DefaultQuota,
		Tenants:       cfg.TenantQuotas,
		InflightLimit: cfg.MaxInflight,
		Registry:      s.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.adm = adm

	if cfg.StatsdAddr != "" {
		s.expCfg = telemetry.Config{
			Addr:     cfg.StatsdAddr,
			Network:  cfg.StatsdNetwork,
			Interval: cfg.StatsdInterval,
			Prefix:   cfg.StatsdPrefix,
			Registry: s.reg,
			Logger:   s.log,
			Sample:   func() { metrics.SampleRuntime(s.reg) },
		}
		exp, err := telemetry.New(s.expCfg)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.exp = exp
	}

	s.adminToken = cfg.AdminToken
	s.cfg = cfg
	s.advertiseURL = strings.TrimSuffix(cfg.AdvertiseURL, "/")
	s.peers = cfg.Peers
	s.probeInterval = cfg.ProbeInterval
	// Outbound probe/demote calls authenticate with the follow token
	// when one is set (homogeneous clusters share one bearer), falling
	// back to this node's own admin token.
	s.outboundToken = cfg.FollowToken
	if s.outboundToken == "" {
		s.outboundToken = cfg.AdminToken
	}

	if cfg.StoreDir != "" {
		opts := cfg.StoreOptions
		if opts.Registry == nil {
			opts.Registry = s.reg
		}
		if opts.Logger == nil {
			opts.Logger = s.log
		}
		if cfg.FollowLeader != "" {
			// A replica's WAL is a byte mirror of its leader's; the store
			// rejects local writes and rotates only on the leader's cue.
			opts.Follower = true
		}
		st, report, err := store.Open(cfg.StoreDir, opts)
		if err != nil {
			return nil, fmt.Errorf("server: opening store: %w", err)
		}
		s.store = st
		s.report = report
		// Engines build lazily, on a version's first query (served). Cold
		// open therefore costs the store's frame scan, not a full decode
		// + engine build per instance.
	} else {
		s.store = store.OpenMemory()
	}

	if cfg.FollowLeader != "" {
		if err := s.startFollower(cfg); err != nil {
			s.store.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
	} else if s.store.Durable() && !s.store.IsFollower() && len(s.peers) > 0 {
		// Split-brain guard for restarts: before this node serves a
		// single write as leader, ask the peers whether a higher epoch
		// exists. A rebooted old leader fences here, ahead of its first
		// client. Unreachable peers are no objection (see failover.go).
		s.probePeersOnce(context.Background())
		s.startProber()
	}

	if s.exp != nil {
		s.exp.Start()
	}
	return s, nil
}

// MustNew is New for configurations known valid at compile time (tests,
// fixed defaults); it panics on error.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// RecoveryReport returns the durable store's crash-recovery report, or
// nil on an in-memory server.
func (s *Server) RecoveryReport() *store.RecoveryReport { return s.report }

// served is what the server keeps per instance version: an engine and,
// built with it rather than per request, the circuit-breaker key of every
// statement shape on its instance. It is its engine's gate: the breaker
// guards evaluation, so a statement the result cache answers is served
// whatever its shape's breaker state, and is neither a half-open probe nor
// an outcome recorded against the breaker.
type served struct {
	eng *engine.Engine
	srv *Server
	// breakerKeys[pxql.ShapeIndex(shape)] is "<instance>.<shape>": the
	// breaker scopes by instance as well as shape, so a width-bomb tripping
	// "point" on one instance never sheds point queries on healthy ones. The
	// key doubles as the breaker_state.<key> gauge suffix in /v1/metrics.
	breakerKeys [pxql.NumShapes]string
}

// Enter is the breaker's Allow for shape on the served instance: a
// *breakerOpenError when it sheds the statement.
func (sv *served) Enter(shape string) error {
	key := sv.breakerKeys[pxql.ShapeIndex(shape)]
	if allowed, retry := sv.srv.breaker.Allow(key); !allowed {
		return &breakerOpenError{key: key, retry: retry}
	}
	return nil
}

// Leave records an evaluation Enter let through with the breaker: a trip
// when its failure is one (classifyQueryError).
func (sv *served) Leave(shape string, err error) {
	sv.srv.breaker.Record(sv.breakerKeys[pxql.ShapeIndex(shape)], err != nil && sv.srv.classifyQueryError(err).trip)
}

// perShape is one family of registry metrics, one per statement shape
// (<prefix><shape>). A shape's metric is looked up in the registry on its
// first observation only, so observing neither builds a name nor takes the
// registry's mutex, and a shape never observed never appears in /v1/metrics.
type perShape[T any] struct {
	prefix string
	lookup func(name string) *T
	slots  [pxql.NumShapes]atomic.Pointer[T]
}

func (p *perShape[T]) of(shape string) *T {
	slot := &p.slots[pxql.ShapeIndex(shape)]
	m := slot.Load()
	if m == nil {
		m = p.lookup(p.prefix + shape)
		slot.Store(m)
	}
	return m
}

// newEngine wraps version of name's instance in an engine wired to the
// shared result cache under the namespace "<name>@<version>", with the
// breaker as its gate. A store never repeats a name's version (delete and
// re-put keep counting up), so the namespace names one version of one name.
func (s *Server) newEngine(name string, version uint64, pi *core.ProbInstance) *served {
	sv := &served{srv: s}
	opts := []engine.Option{
		engine.WithResultCache(s.results, fmt.Sprintf("%s@%d", name, version)),
		engine.WithGate(sv),
		// Feed every statement's shape and latency into the shared
		// percentile timers, so /v1/metrics and the statsd stream report
		// p50/p95/p99 per statement shape across all instances.
		engine.WithShapeObserver(func(shape string, d time.Duration) {
			s.shapeLatency.of(shape).Observe(d)
		}),
		// Per-query resource envelope (zero = no limits, cancellation
		// still reaches the kernels) plus estimated-vs-actual cost
		// telemetry per statement shape.
		engine.WithBudget(s.budget),
		engine.WithCostObserver(func(shape string, estimated, actual int64) {
			if estimated > 0 {
				s.costEst.of(shape).Observe(estimated)
			}
			s.costActual.of(shape).Observe(actual)
		}),
	}
	if s.queryWorkers > 0 {
		opts = append(opts, engine.WithWorkers(s.queryWorkers))
	}
	sv.eng = engine.New(pi, opts...)
	for i, shape := range pxql.Shapes {
		sv.breakerKeys[i] = name + "." + shape
	}
	return sv
}

// SetDraining flips the readiness probe: a draining server answers 503
// on /readyz so load balancers stop routing to it, while in-flight and
// new requests still complete. Safe to call at any time.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Put stores an instance under a name, replacing any previous one. The
// instance must not be mutated afterwards. Put only writes the store,
// which is what is served: a write the store rejects (degraded read-only
// mode, append failure) is not served either — the error matches
// store.ErrDegraded when the store has flipped read-only.
func (s *Server) Put(name string, pi *core.ProbInstance) error {
	if s.store.Durable() && !validName(name) {
		return fmt.Errorf("server: name %q not storable (use [A-Za-z0-9_-])", name)
	}
	return s.store.Put(name, pi)
}

// Get returns the named instance.
func (s *Server) Get(name string) (*core.ProbInstance, bool) {
	eng, ok := s.Engine(name)
	if !ok {
		return nil, false
	}
	return eng.Instance(), true
}

// Engine returns the named instance's query engine.
func (s *Server) Engine(name string) (*engine.Engine, bool) {
	sv, ok := s.served(name)
	if !ok {
		return nil, false
	}
	return sv.eng, true
}

// served returns the named instance's engine and breaker keys: one
// atomic catalog load and no lock. They are built on the first use of
// each version and memoized on its catalog entry, so they are always
// those of the version the store serves.
func (s *Server) served(name string) (*served, bool) {
	v, ok := s.store.Memo(name, func(version uint64, pi *core.ProbInstance) any {
		return s.newEngine(name, version, pi)
	})
	if !ok {
		return nil, false
	}
	return v.(*served), true
}

// built is served without the build: a version not used yet has no
// engine.
func (s *Server) built(name string) (*served, bool) {
	v, ok := s.store.Memo(name, nil)
	if !ok {
		return nil, false
	}
	return v.(*served), true
}

// Delete removes the named instance, reporting whether it existed; of
// racing deletes of one name, exactly one reports true. Like Put, it only
// writes the store: a degraded store rejects the delete (error matching
// store.ErrDegraded) and the instance stays served, rather than vanishing
// from memory only to resurrect from disk on the next restart.
func (s *Server) Delete(name string) (bool, error) {
	return s.store.Delete(name)
}

// Close stops the telemetry flush loop (after one final flush), stops
// the replication puller on a follower, and closes the store (flushing
// a durable one's WAL). The catalog keeps serving reads afterwards; a
// durable store refuses further writes.
func (s *Server) Close() error {
	if s.exp != nil {
		s.exp.Stop()
		s.exp = nil
	}
	s.stopProber()
	s.stopFollower()
	return s.store.Close()
}

// Names returns the stored names, sorted. Lock-free: the store's catalog
// caches its sorted key list per epoch.
func (s *Server) Names() []string {
	return s.store.Names()
}

// validName reports whether a name is safe for persistent storage.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}
