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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pxml/internal/admission"
	"pxml/internal/apiv1"
	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/dot"
	"pxml/internal/engine"
	"pxml/internal/govern"
	"pxml/internal/metrics"
	"pxml/internal/pxql"
	"pxml/internal/repl"
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

// Server is a concurrency-safe catalog of named query engines, optionally
// backed by the durable storage engine (see Config.StoreDir). Everything
// Config sets is fixed at construction.
type Server struct {
	mu sync.RWMutex
	// engines is the published engine registry: an immutable map behind
	// an atomic pointer, mirroring the store's MVCC catalog. Readers
	// (Engine, Get, request handlers) load it with one pointer read and
	// no lock; writers build a copy-on-write successor under s.mu and
	// publish it atomically (see mutateEnginesLocked). Store-backed
	// servers build engines on demand: a name missing here but live in
	// the store materializes through Engine's slow path.
	engines    atomic.Pointer[map[string]*engine.Engine]
	store      *store.Store // log-structured persistence; nil without Config.StoreDir
	backupRoot string       // /v1/admin/backup destination root; "" = endpoint disabled
	maxBody    int64
	log        *slog.Logger

	// results memoizes scalar query answers across all instances; version
	// feeds each engine's cache-key prefix so entries for a replaced
	// instance become unreachable the moment Put installs the new engine.
	results      *rescache.Cache
	version      atomic.Uint64
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
	latency  *metrics.Histogram

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
	// RecoveryReport). A directory of one-file-per-instance <name>.pxml
	// text files is migrated on first open. Names are restricted to
	// [A-Za-z0-9_-]+ to keep durable artifacts unambiguous.
	StoreDir string
	// StoreOptions tunes the durable store; only read with StoreDir.
	// Its Registry is overridden with the server's own.
	StoreOptions store.Options

	// Logger enables structured request/lifecycle logging; nil disables.
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
	// OverloadFraction is the inflight utilisation above which weighted
	// fair admission engages; 0 = admission default (0.75).
	OverloadFraction float64

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
		log:        cfg.Logger,
		started:    time.Now(),
		reg:        metrics.NewRegistry(),
		results:    rescache.New(cacheBytes),
	}
	em := make(map[string]*engine.Engine)
	s.engines.Store(&em)
	s.requests = s.reg.Counter("http_requests")
	s.errors = s.reg.Counter("http_errors")
	s.shed = s.reg.Counter("http_shed")
	s.panics = s.reg.Counter("http_panics")
	s.inflight = s.reg.Gauge("http_inflight")
	s.latency = s.reg.Histogram("http_latency")
	s.qBudget = s.reg.Counter("query_budget_exceeded")
	s.qIntract = s.reg.Counter("query_intractable")
	s.qCancel = s.reg.Counter("query_cancelled")
	s.qPanic = s.reg.Counter("query_panics")
	s.breakerShed = s.reg.Counter("breaker_shed")
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
		Default:          cfg.DefaultQuota,
		Tenants:          cfg.TenantQuotas,
		InflightLimit:    cfg.MaxInflight,
		OverloadFraction: cfg.OverloadFraction,
		Registry:         s.reg,
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
			Logger:   cfg.Logger,
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
		if cfg.FollowLeader != "" {
			// A replica's WAL is a byte mirror of its leader's; the store
			// rejects local writes and rotates only on the leader's cue.
			opts.Follower = true
		} else {
			// Leaders stamp each group commit with wall-clock time so
			// followers can report staleness, not just byte lag.
			opts.Stamps = true
		}
		st, report, err := store.Open(cfg.StoreDir, opts)
		if err != nil {
			return nil, fmt.Errorf("server: opening store: %w", err)
		}
		s.store = st
		s.report = report
		// Engines build lazily: Engine's slow path materializes one on a
		// name's first query. Cold open therefore costs the store's
		// frame scan, not a full decode + engine build per instance.
	}

	if cfg.FollowLeader != "" {
		if err := s.startFollower(cfg); err != nil {
			s.store.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
	} else if s.store != nil && !s.store.IsFollower() && len(s.peers) > 0 {
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
// nil when the server is not store-backed.
func (s *Server) RecoveryReport() *store.RecoveryReport { return s.report }

// newEngine wraps an instance in an engine wired to the shared result
// cache under a fresh version prefix (the \x00 separator keeps any
// name/statement pair from colliding with another prefix). Callers hold
// s.mu or have exclusive access during construction.
func (s *Server) newEngine(name string, pi *core.ProbInstance) *engine.Engine {
	prefix := fmt.Sprintf("%s@%d\x00", name, s.version.Add(1))
	opts := []engine.Option{
		engine.WithResultCache(s.results, prefix),
		// Feed every statement's shape and latency into the shared
		// percentile timers, so /v1/metrics and the statsd stream report
		// p50/p95/p99 per statement shape across all instances.
		engine.WithShapeObserver(func(shape string, d time.Duration) {
			s.reg.Timer("pxql_latency." + shape).Observe(d)
		}),
		// Per-query resource envelope (zero = no limits, cancellation
		// still reaches the kernels) plus estimated-vs-actual cost
		// telemetry per statement shape.
		engine.WithBudget(s.budget),
		engine.WithCostObserver(func(shape string, estimated, actual int64) {
			if estimated > 0 {
				s.reg.IntHistogram("query_cost_est_steps." + shape).Observe(estimated)
			}
			s.reg.IntHistogram("query_cost_actual_steps." + shape).Observe(actual)
		}),
	}
	if s.queryWorkers > 0 {
		opts = append(opts, engine.WithWorkers(s.queryWorkers))
	}
	return engine.New(pi, opts...)
}

// SetDraining flips the readiness probe: a draining server answers 503
// on /readyz so load balancers stop routing to it, while in-flight and
// new requests still complete. Safe to call at any time.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// Put stores an instance under a name, replacing any previous one. The
// instance must not be mutated afterwards. With the durable store
// backing the catalog, durability gates acceptance: a write the store
// rejects (degraded read-only mode, append failure) is not installed in
// memory either, so the served catalog never silently diverges from
// disk — the error matches store.ErrDegraded when the store has flipped
// read-only.
func (s *Server) Put(name string, pi *core.ProbInstance) error {
	if s.store != nil {
		if !validName(name) {
			return fmt.Errorf("server: name %q not storable (use [A-Za-z0-9_-])", name)
		}
		if err := s.store.Put(name, pi); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.mutateEnginesLocked(func(m map[string]*engine.Engine) { m[name] = s.newEngine(name, pi) })
	s.mu.Unlock()
	return nil
}

// Get returns the named instance.
func (s *Server) Get(name string) (*core.ProbInstance, bool) {
	eng, ok := s.Engine(name)
	if !ok {
		return nil, false
	}
	return eng.Instance(), true
}

// engineMap returns the published engine registry. The map is immutable;
// mutators publish successors via mutateEnginesLocked.
func (s *Server) engineMap() map[string]*engine.Engine {
	return *s.engines.Load()
}

// mutateEnginesLocked publishes a copy-on-write successor of the engine
// registry transformed by fn. Callers hold s.mu.
func (s *Server) mutateEnginesLocked(fn func(m map[string]*engine.Engine)) {
	cur := s.engineMap()
	m := make(map[string]*engine.Engine, len(cur)+1)
	for k, v := range cur {
		m[k] = v
	}
	fn(m)
	s.engines.Store(&m)
}

// Engine returns the named instance's query engine. The fast path is
// one atomic registry load — no locks. On a store-backed server a name
// that is live in the store but has no engine yet (cold start, or a
// follower apply that outpaced queries) gets one built and published on
// first touch.
func (s *Server) Engine(name string) (*engine.Engine, bool) {
	if eng, ok := s.engineMap()[name]; ok {
		return eng, true
	}
	if s.store == nil {
		return nil, false
	}
	pi, ok := s.store.Get(name)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if eng, ok := s.engineMap()[name]; ok {
		return eng, true
	}
	eng := s.newEngine(name, pi)
	s.mutateEnginesLocked(func(m map[string]*engine.Engine) { m[name] = eng })
	return eng, true
}

// Delete removes the named instance, reporting whether it existed. Like
// Put, the durable store is consulted first: a degraded store rejects
// the delete (error matching store.ErrDegraded) and the instance stays
// served, rather than vanishing from memory only to resurrect from disk
// on the next restart.
func (s *Server) Delete(name string) (bool, error) {
	var existed bool
	if s.store != nil {
		// Existence comes from the store's catalog, not the engine map:
		// with lazily built engines, a recovered instance that was never
		// queried has no engine yet but very much exists.
		_, existed = s.store.Version(name)
		if err := s.store.Delete(name); err != nil {
			return false, err
		}
	}
	s.mu.Lock()
	_, ok := s.engineMap()[name]
	if ok {
		s.mutateEnginesLocked(func(m map[string]*engine.Engine) { delete(m, name) })
	}
	s.mu.Unlock()
	existed = existed || ok
	// Bump the version so any future engine for this name starts under a
	// fresh cache prefix; the dropped engine's entries are already
	// unreachable and will age out of the LRU.
	s.version.Add(1)
	return existed, nil
}

// Close stops the telemetry flush loop (after one final flush), stops
// the replication puller on a follower, and releases the persistence
// backend (flushing the WAL when the store is in use). The catalog
// keeps serving from memory afterwards, but further writes are no
// longer durable.
func (s *Server) Close() error {
	if s.exp != nil {
		s.exp.Stop()
		s.exp = nil
	}
	s.stopProber()
	s.stopFollower()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Names returns the stored names, sorted. Lock-free: the store's
// catalog (which caches its sorted key list per epoch) on store-backed
// servers, the published engine registry otherwise.
func (s *Server) Names() []string {
	if s.store != nil {
		return s.store.Names()
	}
	em := s.engineMap()
	out := make([]string, 0, len(em))
	for n := range em {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// routeClass names the middleware stack a route runs under. Nothing
// Config sets changes after New, so Handler assembles each route's stack
// once instead of deciding per request.
type routeClass int

const (
	// classProbe is bare: /healthz and /readyz keep answering while the
	// API is saturated or shedding.
	classProbe routeClass = iota
	// classRepl is token-gated and timed, but outside admission, the
	// in-flight limiter and the request deadline: a follower long-polling
	// the tail must not burn a serving slot or be cut off mid-poll.
	classRepl
	// classAdmin is token-gated and runs under the limiter and the
	// deadline, but bypasses admission: operators must be able to inspect
	// and loosen quotas while the server is shedding.
	classAdmin
	// classInstance is the catalog and query surface. Admission sits in
	// front of the global limiter: a tenant over its quota is rejected
	// before it can occupy one of the shared slots.
	classInstance
)

// route is one entry of the route table.
type route struct {
	pattern  string // ServeMux pattern: method and full path
	class    routeClass
	endpoint string // names the http_latency.<endpoint> timer; probes have none
	handle   http.HandlerFunc
}

// routes is the whole HTTP surface: the v1 API and the two probes.
func (s *Server) routes() []route {
	const v1 = apiv1.Prefix
	return []route{
		{"GET /healthz", classProbe, "", s.handleHealthz},
		{"GET /readyz", classProbe, "", s.handleReadyz},
		{"GET " + repl.StreamPath, classRepl, "repl_stream", s.handleReplStream},
		{"GET " + repl.BootstrapPath, classRepl, "repl_bootstrap", s.handleReplBootstrap},
		{"GET " + repl.EpochPath, classRepl, "repl_epoch", s.handleReplEpoch},
		{"POST " + v1 + "/admin/backup", classAdmin, "backup", s.handleBackup},
		{"POST " + v1 + "/admin/scrub", classAdmin, "scrub", s.handleScrub},
		{"POST " + v1 + "/admin/promote", classAdmin, "promote", s.handlePromote},
		{"POST " + v1 + "/admin/demote", classAdmin, "demote", s.handleDemote},
		{"GET " + v1 + "/admin/quotas", classAdmin, "quotas", s.handleQuotasGet},
		{"PUT " + v1 + "/admin/quotas", classAdmin, "quotas", s.handleQuotasPut},
		{"GET " + v1 + "/instances", classInstance, "list", s.handleList},
		{"PUT " + v1 + "/instances/{name}", classInstance, "put", s.handlePut},
		{"GET " + v1 + "/instances/{name}", classInstance, "get", s.handleGet},
		{"DELETE " + v1 + "/instances/{name}", classInstance, "delete", s.handleDelete},
		{"GET " + v1 + "/instances/{name}/dot", classInstance, "dot", s.handleDot},
		{"POST " + v1 + "/instances/{name}/query", classInstance, "query", s.handleQuery},
		{"POST " + v1 + "/instances/{name}/batch", classInstance, "batch", s.handleBatch},
		{"GET " + v1 + "/metrics", classInstance, "metrics", s.handleMetrics},
	}
}

// stack wraps a route's handler in the middleware its class calls for.
// The percentile timer is innermost, so it times the handler alone.
func (s *Server) stack(rt route) http.Handler {
	if rt.class == classProbe {
		return rt.handle
	}
	t := s.reg.Timer("http_latency." + rt.endpoint)
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rt.handle(w, r)
		t.Observe(time.Since(start))
	})
	switch rt.class {
	case classRepl:
		return s.requireToken(h)
	case classAdmin:
		return s.requireToken(s.limitInflight(s.withDeadline(h)))
	default:
		return s.admit(s.limitInflight(s.withDeadline(h)))
	}
}

// Handler returns the HTTP handler for the catalog: every route of the
// table on one mux, each under its class's stack, and the whole under
// request metrics, optional structured logging and panic recovery.
// Anything no route claims, unversioned paths included, answers the 404
// envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.pattern, s.stack(rt))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		// The catch-all also claims a routed path asked with the wrong
		// method, which the mux alone would answer 405: ask it which
		// methods the path does take.
		var allow []string
		probe := *r
		for _, m := range []string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodDelete} {
			probe.Method = m
			if _, pattern := mux.Handler(&probe); pattern != "/" {
				allow = append(allow, m)
			}
		}
		if len(allow) > 0 {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
			return
		}
		apiv1.WriteError(w, http.StatusNotFound, apiv1.CodeNotFound,
			fmt.Sprintf("no route %s (the API lives under %s)", r.URL.Path, apiv1.Prefix))
	})
	return s.instrument(s.recoverPanics(mux))
}

// admit runs the per-tenant admission tier: token-bucket quotas first,
// weighted fair sharing of the inflight capacity under overload second.
// The tenant is the instance name ("" for the catalog listing and
// metrics). Shed requests answer 429 with the structured envelope and a
// Retry-After hint and never reach the shared limiter.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("name")
		d := s.adm.Admit(tenant)
		if !d.OK {
			s.shed.Inc()
			code := apiv1.CodeQuotaExceeded
			msg := fmt.Sprintf("tenant %q over its request quota, retry later", tenant)
			if d.Reason == "overload" {
				code = apiv1.CodeOverloaded
				msg = fmt.Sprintf("server overloaded and tenant %q is over its fair share, retry later", tenant)
			}
			apiv1.WriteErrorRetry(w, http.StatusTooManyRequests, code, msg, d.RetryAfter)
			return
		}
		defer s.adm.Release(tenant)
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the status code and body size a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// recoverPanics converts a handler panic into a 500 (when the response
// has not started) plus a counter and a log line, so one bad request
// cannot take down the daemon. http.ErrAbortHandler keeps its meaning.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Inc()
			if s.log != nil {
				s.log.Error("handler panic",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			}
			if rec, ok := w.(*statusRecorder); !ok || !rec.wrote {
				httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitInflight sheds requests beyond the Config.MaxInflight cap with 429 +
// Retry-After instead of queueing without bound: under overload it is
// better to fail a few requests fast than to slow every request down.
func (s *Server) limitInflight(next http.Handler) http.Handler {
	if s.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next.ServeHTTP(w, r)
		default:
			s.shed.Inc()
			w.Header().Set("Retry-After", "1")
			apiv1.WriteErrorRetry(w, http.StatusTooManyRequests, apiv1.CodeOverloaded,
				fmt.Sprintf("server overloaded (%d requests in flight), retry later", cap(s.sem)), time.Second)
		}
	})
}

// withDeadline bounds the request with Config.RequestTimeout via the
// context every engine call already honors; an expired deadline surfaces
// as 503 through httpQueryError.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleReadyz reports whether this server should receive traffic: not
// while draining for shutdown, and not ready for writes once the store
// has degraded (readiness is the operator's signal to fail over).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.store != nil {
		if h := s.store.Health(); h.Degraded {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "degraded",
				"reason": h.Reason,
			})
			return
		}
		if fenced, epoch, leader := s.store.Fenced(); fenced {
			// A fenced ex-leader still serves reads, but readiness is the
			// routing signal and writes belong on the successor.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "fenced",
				"epoch":  epoch,
				"leader": leader,
			})
			return
		}
	}
	if f := s.follower.Load(); f != nil {
		st := f.puller.Status()
		if st.Diverged {
			// Sticky: a diverged replica must never serve spliced history;
			// an operator re-bootstraps it.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "diverged",
				"reason": st.LastErr,
			})
			return
		}
		if !f.puller.Ready(f.maxStaleness) {
			stale := st.Staleness(time.Now()).Seconds()
			if stale > (365 * 24 * time.Hour).Seconds() {
				stale = -1 // never synced
			}
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":      "replica_stale",
				"staleness_s": stale,
				"lag_bytes":   st.LagBytes,
				"max_s":       f.maxStaleness.Seconds(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// instrument wraps the mux with request counting, latency observation and
// optional structured logging.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.inflight.Inc()
		defer s.inflight.Dec()
		next.ServeHTTP(rec, r)
		d := time.Since(start)
		s.requests.Inc()
		s.latency.Observe(d)
		if rec.status >= 400 {
			s.errors.Inc()
		}
		if s.log != nil {
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"bytes", rec.bytes,
				"duration_ms", float64(d)/float64(time.Millisecond),
				"remote", r.RemoteAddr,
			)
		}
	})
}

type listEntry struct {
	Name    string `json:"name"`
	Root    string `json:"root"`
	Objects int    `json:"objects"`
	Edges   int    `json:"edges"`
	Depth   int    `json:"depth"`
	Tree    bool   `json:"tree"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// The registry map is immutable once published — iterate it
	// directly, no lock, no copy. Store-backed servers list the store's
	// catalog instead (engines build lazily, so the registry alone may
	// under-report); Engine materializes any not-yet-built entry.
	engines := s.engineMap()
	if s.store != nil {
		names := s.store.Names()
		engines = make(map[string]*engine.Engine, len(names))
		for _, name := range names {
			if eng, ok := s.Engine(name); ok {
				engines[name] = eng
			}
		}
	}
	entries := make([]listEntry, 0, len(engines))
	for name, eng := range engines {
		pi := eng.Instance()
		st := pi.ComputeStats()
		entries = append(entries, listEntry{
			Name: name, Root: pi.Root(),
			Objects: st.Objects, Edges: st.Edges, Depth: st.Depth,
			Tree: eng.IsTree(),
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	writeJSON(w, http.StatusOK, entries)
}

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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.updateRuntimeGauges()
	// Publish breaker states as gauges (closed=0, half-open=1, open=2),
	// keyed <instance>.<shape>, so the statsd stream and alerting see
	// transitions too.
	if s.breaker != nil {
		for key := range s.breaker.Status() {
			s.reg.Gauge("breaker_state." + key).Set(int64(s.breaker.StateOf(key)))
		}
	}
	// Live engines only: a lazily loaded instance that was never queried
	// has no engine and no per-engine metrics to report.
	em := s.engineMap()
	insts := make(map[string]any, len(em))
	for name, eng := range em {
		insts[name] = eng.Metrics()
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
	if s.store != nil {
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

// handleQuotasGet reports the live admission configuration and per-tenant
// state (token balances, inflight counts).
func (s *Server) handleQuotasGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.adm.State())
}

// quotasRequest is the PUT /v1/admin/quotas body: a full replacement of
// the default quota and the per-tenant table.
type quotasRequest struct {
	Default admission.Quota            `json:"default_quota"`
	Tenants map[string]admission.Quota `json:"tenants"`
}

// handleQuotasPut replaces the admission quota table at runtime. Shed and
// admit counters carry over; bucket levels are re-capped to the new
// bursts so a tightened quota bites immediately.
func (s *Server) handleQuotasPut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStatementBytes))
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	var req quotasRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("decode quotas: %w", err))
		return
	}
	if err := s.adm.Reload(req.Default, req.Tenants); err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, err)
		return
	}
	if s.log != nil {
		s.log.Info("admission quotas reloaded", "tenants", len(req.Tenants))
	}
	writeJSON(w, http.StatusOK, s.adm.State())
}

// httpWriteError maps a persistence-write failure onto the envelope:
// writes against a degraded (read-only) store are 503 — the condition is
// the server's, not the request's — a follower's read-only refusal is a
// 409 (the handler normally 307s writes away before this can happen),
// and anything else stays a 500.
func httpWriteError(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrDegraded) {
		apiv1.WriteErrorRetry(w, http.StatusServiceUnavailable, apiv1.CodeDegraded, err.Error(), time.Second)
		return
	}
	if errors.Is(err, store.ErrFollowerReadOnly) {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, err)
		return
	}
	if errors.Is(err, store.ErrEpochFenced) {
		// A fenced ex-leader without a known successor cannot redirect;
		// the hard backstop is this typed rejection — a superseded node
		// never acknowledges a write.
		httpError(w, http.StatusConflict, apiv1.CodeEpochFenced, err)
		return
	}
	httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
}

// breakerKey names one circuit: statement shape scoped by instance, so a
// width-bomb tripping "point" on one instance never sheds point queries
// on healthy instances. The key doubles as the breaker_state.<key> gauge
// suffix in /v1/metrics.
func breakerKey(instance, shape string) string {
	return instance + "." + shape
}

// isBreakerTrip classifies one statement outcome for the circuit
// breaker: budget exhaustion, a provably-intractable refusal, an expired
// deadline, and a contained evaluation panic all count as trips — they
// are the server protecting itself from the statement. A client that
// went away (context.Canceled) is not the statement's fault and must not
// open the breaker for everyone else.
func isBreakerTrip(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, govern.ErrBudgetExceeded) ||
		errors.Is(err, govern.ErrIntractable) ||
		errors.Is(err, engine.ErrQueryPanic) ||
		errors.Is(err, context.DeadlineExceeded)
}

// countQueryError tallies one failed statement on the governor counters.
func (s *Server) countQueryError(err error) {
	switch {
	case errors.Is(err, govern.ErrIntractable):
		s.qIntract.Inc()
	case errors.Is(err, govern.ErrBudgetExceeded):
		s.qBudget.Inc()
	case errors.Is(err, engine.ErrQueryPanic):
		s.qPanic.Inc()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.qCancel.Inc()
	}
}

// httpQueryError maps a statement failure onto the envelope. Governor
// refusals keep their retry semantics on the wire: an intractable
// statement is a 422 (retrying the same statement cannot succeed), a
// runtime budget trip is a 503 with Retry-After (a cheaper variant may
// fit), a contained evaluation panic is a 500. An expired per-request
// deadline (or a caller that went away) is 503 so clients and load
// balancers treat it as server pressure, not statement error.
func httpQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, govern.ErrIntractable):
		apiv1.WriteError(w, http.StatusUnprocessableEntity, apiv1.CodeIntractable, err.Error())
	case errors.Is(err, govern.ErrBudgetExceeded):
		apiv1.WriteErrorRetry(w, http.StatusServiceUnavailable, apiv1.CodeBudgetExceeded, err.Error(), time.Second)
	case errors.Is(err, engine.ErrQueryPanic):
		apiv1.WriteError(w, http.StatusInternalServerError, apiv1.CodeInternal, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		apiv1.WriteErrorRetry(w, http.StatusServiceUnavailable, apiv1.CodeTimeout, err.Error(), time.Second)
	default:
		httpError(w, http.StatusUnprocessableEntity, apiv1.CodeStatementFailed, err)
	}
}

// httpDecodeError maps a body-read/decode error onto the envelope:
// oversized bodies (cut off by MaxBytesReader) are 413, anything else 400.
func httpDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, apiv1.CodeBodyTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, err)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	if s.redirectToLeader(w, r) {
		return
	}
	name := r.PathValue("name")
	// Refuse before working: a name the store cannot hold is known from the
	// URL alone, ahead of reading, decoding and validating the body.
	if s.store != nil && !validName(name) {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("name %q not storable (use [A-Za-z0-9_-])", name))
		return
	}
	// Read fully before decoding so an oversized body is always reported
	// as 413 rather than as whatever parse error the truncation causes.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	var pi *core.ProbInstance
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		pi, err = codec.DecodeJSON(bytes.NewReader(raw))
	} else {
		pi, err = codec.DecodeTextBytes(raw)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, err)
		return
	}
	if err := pi.ValidateLite(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, apiv1.CodeInvalidInstance, fmt.Errorf("instance invalid: %w", err))
		return
	}
	if err := s.Put(name, pi); err != nil {
		httpWriteError(w, err)
		return
	}
	s.stampEpoch(w)
	writeJSON(w, http.StatusCreated, map[string]any{"name": name, "objects": pi.NumObjects()})
}

// stampEpoch marks a successful write acknowledgement with the leader
// epoch it was committed under, so clients (and the failover chaos
// harness) can prove no two epochs ever acknowledged writes
// concurrently.
func (s *Server) stampEpoch(w http.ResponseWriter) {
	if s.store != nil {
		w.Header().Set(repl.HeaderEpoch, strconv.FormatUint(s.store.Epoch(), 10))
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	pi, ok := s.Get(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", r.PathValue("name")))
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "json") {
		w.Header().Set("Content-Type", "application/json")
		if err := codec.EncodeJSON(w, pi); err != nil {
			httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := codec.EncodeText(w, pi); err != nil {
		httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.redirectToLeader(w, r) {
		return
	}
	ok, err := s.Delete(r.PathValue("name"))
	if err != nil {
		httpWriteError(w, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", r.PathValue("name")))
		return
	}
	s.stampEpoch(w)
	w.WriteHeader(http.StatusNoContent)
}

// handleBackup takes an online backup of the durable store into a
// subdirectory of the configured backup root named by the request. The
// client chooses only the name; the server chooses the filesystem
// location, and the endpoint is disabled entirely without Config.BackupRoot —
// an unrestricted destination would be a filesystem-write primitive for
// anyone who can reach the API. The destination must be empty or absent;
// writes keep flowing while the backup is cut (see store.Backup). The
// response is the backup's manifest — everything a later pxmlbackup
// verify/restore needs to know about what was captured.
func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, fmt.Errorf("server has no durable store to back up"))
		return
	}
	if s.backupRoot == "" {
		httpError(w, http.StatusForbidden, apiv1.CodeForbidden, fmt.Errorf("backup endpoint disabled: no backup root configured (start pxmld with -backup-dir)"))
		return
	}
	var req struct {
		Dir string `json:"dir"`
	}
	req.Dir = r.URL.Query().Get("dir")
	if r.Body != nil && req.Dir == "" {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStatementBytes))
		if err != nil {
			httpDecodeError(w, err)
			return
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("decode backup request: %w", err))
				return
			}
		}
	}
	if req.Dir == "" {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("backup needs a destination name (?dir= or JSON {\"dir\": ...}) relative to the server's backup root"))
		return
	}
	dest, err := resolveBackupDir(s.backupRoot, req.Dir)
	if err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, err)
		return
	}
	man, err := s.store.Backup(dest)
	if err != nil {
		httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
		return
	}
	if s.log != nil {
		s.log.Info("backup complete", "dir", dest, "instances", man.Instances, "pos", man.Pos.String())
	}
	writeJSON(w, http.StatusOK, man)
}

// resolveBackupDir maps a client-supplied backup name onto a directory
// under root, rejecting anything that could land outside it: absolute
// paths, any ".." component, or a name that resolves to the root itself.
func resolveBackupDir(root, name string) (string, error) {
	if filepath.IsAbs(name) {
		return "", fmt.Errorf("backup destination %q must be relative to the server's backup root", name)
	}
	clean := filepath.Clean(name)
	if clean == "." || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("backup destination %q escapes the server's backup root", name)
	}
	return filepath.Join(root, clean), nil
}

// handleScrub runs a synchronous full verification pass over the store's
// at-rest files. Corruption degrades the store (readyz flips) and comes
// back as a 500 so the caller knows restoration is now the job at hand.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, fmt.Errorf("server has no durable store to scrub"))
		return
	}
	if err := s.store.Scrub(); err != nil {
		httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
		return
	}
	h := s.store.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"scrub_passes": h.ScrubPasses,
	})
}

func (s *Server) handleDot(w http.ResponseWriter, r *http.Request) {
	pi, ok := s.Get(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", r.PathValue("name")))
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	io.WriteString(w, dot.Weak(pi))
}

type queryResponse struct {
	Text   string   `json:"text"`
	Prob   *float64 `json:"prob,omitempty"`
	Stored string   `json:"stored,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	storeAs := r.URL.Query().Get("store")
	if storeAs != "" {
		// A query that stores its result writes; on a follower it belongs
		// on the leader. Plain queries serve locally — that is the point
		// of a read replica.
		if s.redirectToLeader(w, r) {
			return
		}
		// Refuse before working, as handlePut does: a name the store
		// cannot hold is known from the URL alone.
		if s.store != nil && !validName(storeAs) {
			httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("name %q not storable (use [A-Za-z0-9_-])", storeAs))
			return
		}
	}
	eng, ok := s.Engine(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", r.PathValue("name")))
		return
	}
	stmt, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStatementBytes))
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	// The breaker key scopes by instance as well as shape: repeated trips
	// on one instance must not shed the same statement shape on healthy
	// instances.
	key := breakerKey(r.PathValue("name"), pxql.ClassifyShape(string(stmt)))
	if allowed, retry := s.breaker.Allow(key); !allowed {
		s.breakerShed.Inc()
		apiv1.WriteErrorRetry(w, http.StatusServiceUnavailable, apiv1.CodeBreakerOpen,
			fmt.Sprintf("circuit breaker open for %q statements (repeated budget trips)", key), retry)
		return
	}
	res, err := eng.Run(r.Context(), string(stmt))
	s.breaker.Record(key, isBreakerTrip(err))
	if err != nil {
		s.countQueryError(err)
		httpQueryError(w, err)
		return
	}
	resp := queryResponse{Text: res.Text, Prob: res.Prob}
	if storeAs != "" {
		if res.Instance == nil {
			httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("statement produced no instance to store"))
			return
		}
		if err := s.Put(storeAs, res.Instance); err != nil {
			httpWriteError(w, err)
			return
		}
		resp.Stored = storeAs
	}
	writeJSON(w, http.StatusOK, resp)
}

type batchEntry struct {
	Statement string   `json:"statement"`
	Text      string   `json:"text,omitempty"`
	Prob      *float64 `json:"prob,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// handleBatch evaluates many statements (one per non-blank line) against
// one instance, fanning them out over the engine's bounded worker pool.
// Per-statement failures are reported inline so one bad statement doesn't
// void the rest.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	eng, ok := s.Engine(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, apiv1.CodeNotFound, fmt.Errorf("no instance %q", r.PathValue("name")))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStatementBytes))
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	var stmts []string
	for _, line := range strings.Split(string(body), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			stmts = append(stmts, line)
		}
	}
	if len(stmts) == 0 {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("empty batch"))
		return
	}
	// The breaker applies per statement, preserving input order: shed
	// statements report breaker_open inline and never reach the engine,
	// the rest run over the pool and feed their outcomes back.
	out := make([]batchEntry, len(stmts))
	shapes := make([]string, len(stmts))
	run := make([]string, 0, len(stmts))
	runIdx := make([]int, 0, len(stmts))
	for i, stmt := range stmts {
		out[i].Statement = stmt
		shapes[i] = breakerKey(r.PathValue("name"), pxql.ClassifyShape(stmt))
		if allowed, _ := s.breaker.Allow(shapes[i]); !allowed {
			s.breakerShed.Inc()
			out[i].Error = fmt.Sprintf("%s: circuit breaker open for %q statements", apiv1.CodeBreakerOpen, shapes[i])
			continue
		}
		run = append(run, stmt)
		runIdx = append(runIdx, i)
	}
	results := eng.RunBatch(r.Context(), run)
	for j, br := range results {
		i := runIdx[j]
		s.breaker.Record(shapes[i], isBreakerTrip(br.Err))
		if br.Err != nil {
			s.countQueryError(br.Err)
			out[i].Error = br.Err.Error()
			continue
		}
		out[i].Text = br.Result.Text
		out[i].Prob = br.Result.Prob
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes the shared v1 error envelope (see apiv1).
func httpError(w http.ResponseWriter, status int, code string, err error) {
	apiv1.WriteError(w, status, code, err.Error())
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
