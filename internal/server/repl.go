package server

// Replication wiring: the leader-side stream/bootstrap endpoints, the
// optional bearer-token gate over the admin and replication surfaces,
// and follower mode — a server whose store mirrors a leader's WAL via
// an embedded repl.Puller, serving all reads locally while 307-routing
// writes to the leader and gating readiness on replication staleness.

import (
	"context"
	"crypto/subtle"
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/repl"
	"pxml/internal/retry"
)

// defaultReplMaxStaleness gates follower readiness unless
// Config.ReplMaxStaleness overrides it.
const defaultReplMaxStaleness = 10 * time.Second

// followerState is the replication machinery of a server running as a
// read replica. The server holds it behind an atomic pointer so a
// promotion can atomically retire it while request handlers read it
// lock-free.
type followerState struct {
	client       *repl.Client
	puller       *repl.Puller
	maxStaleness time.Duration
	pullCancel   context.CancelFunc
	pullDone     chan struct{}

	// monCancel/monDone manage the failover monitor goroutine; nil
	// channels when no -failover-priority was configured.
	monCancel context.CancelFunc
	monDone   chan struct{}

	// mu guards leaderURL: the puller retargets it live when the old
	// leader's fenced 409 names a successor, and every 307 redirect
	// reads it.
	mu        sync.Mutex
	leaderURL string
}

// LeaderURL returns the current leader base URL — the configured
// -follow target until a fencing retarget moves it.
func (f *followerState) LeaderURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderURL
}

func (f *followerState) setLeaderURL(u string) {
	f.mu.Lock()
	f.leaderURL = strings.TrimSuffix(u, "/")
	f.mu.Unlock()
}

// startFollower wires the puller (and, when configured, the failover
// monitor) into the server and starts the loops. Called from New after
// the store is up, and from PromoteSelf when a failed drain rolls the
// promotion back.
func (s *Server) startFollower(cfg Config) error {
	client := &repl.Client{
		BaseURL: cfg.FollowLeader,
		Token:   cfg.FollowToken,
		// Stream long-polls; the client must outlive MaxPollWait.
		HTTPClient: &http.Client{Timeout: repl.MaxPollWait + 30*time.Second},
		// One cheap retry inside each round trip; the puller's own loop
		// handles real outages.
		Retry: retry.Policy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second},
	}
	maxStale := cfg.ReplMaxStaleness
	if maxStale <= 0 {
		maxStale = defaultReplMaxStaleness
	}
	f := &followerState{
		client:       client,
		maxStaleness: maxStale,
		pullDone:     make(chan struct{}),
		leaderURL:    strings.TrimSuffix(cfg.FollowLeader, "/"),
	}
	puller, err := repl.NewPuller(repl.PullerConfig{
		Store:      s.store,
		Client:     client,
		PollWait:   cfg.ReplPollWait,
		OnRetarget: f.setLeaderURL,
		Logger:     s.log,
	})
	if err != nil {
		return err
	}
	f.puller = puller
	ctx, cancel := context.WithCancel(context.Background())
	f.pullCancel = cancel
	s.follower.Store(f)
	go func() {
		defer close(f.pullDone)
		err := puller.Run(ctx)
		if err != nil && !errors.Is(err, context.Canceled) {
			s.log.Error("replication stopped", "leader", f.LeaderURL(), "pos", s.store.Pos().String(), "error", err)
		}
	}()
	if cfg.FailoverPriority > 0 {
		mon, err := repl.NewMonitor(repl.MonitorConfig{
			Puller:   puller,
			Priority: cfg.FailoverPriority,
			Silence:  cfg.FailoverSilence,
			Promote: func(ctx context.Context) error {
				// The promotion cancels the monitor's own context as it
				// retires the follower state; detach so the in-flight
				// promotion (this very call) isn't aborted by that.
				_, err := s.PromoteSelf(context.WithoutCancel(ctx), true)
				return err
			},
			Logger: s.log,
		})
		if err != nil {
			cancel()
			<-f.pullDone
			return err
		}
		mctx, mcancel := context.WithCancel(context.Background())
		f.monCancel = mcancel
		f.monDone = make(chan struct{})
		go func() {
			defer close(f.monDone)
			_ = mon.Run(mctx)
		}()
	}
	return nil
}

// stopFollower tears the pull loop and monitor down (idempotent).
func (s *Server) stopFollower() {
	f := s.follower.Load()
	if f == nil {
		return
	}
	if f.monCancel != nil {
		f.monCancel()
		<-f.monDone
	}
	f.pullCancel()
	<-f.pullDone
}

// Follower reports whether this server runs as a read replica, and if
// so of which leader.
func (s *Server) Follower() (leaderURL string, ok bool) {
	f := s.follower.Load()
	if f == nil {
		return "", false
	}
	return f.LeaderURL(), true
}

// ReplStatus returns the follower's replication status (zero Status and
// false on a leader).
func (s *Server) ReplStatus() (repl.Status, bool) {
	f := s.follower.Load()
	if f == nil {
		return repl.Status{}, false
	}
	return f.puller.Status(), true
}

// redirectToLeader answers a write request with a 307 onto the current
// leader's equivalent URL (method- and body-preserving), reporting
// whether it did. On a follower the target is the live leader URL — the
// configured -follow address until a failover retargets it — never a
// value cached at redirect-construction time. A fenced ex-leader
// redirects too, once it knows its successor; before that, writes fall
// through to the store's epoch_fenced rejection.
func (s *Server) redirectToLeader(w http.ResponseWriter, r *http.Request) bool {
	var leader string
	if f := s.follower.Load(); f != nil {
		leader = f.LeaderURL()
	} else if fenced, _, url := s.store.Fenced(); fenced {
		leader = url
	}
	if leader == "" {
		return false
	}
	target := leader + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
	return true
}

// requireToken gates the /v1/admin/* and /v1/repl/* routes behind the
// bearer token when one is configured, answering 401 without it.
func (s *Server) requireToken(next http.Handler) http.Handler {
	if s.adminToken == "" {
		return next
	}
	const scheme = "Bearer "
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		if len(auth) > len(scheme) && strings.EqualFold(auth[:len(scheme)], scheme) &&
			subtle.ConstantTimeCompare([]byte(auth[len(scheme):]), []byte(s.adminToken)) == 1 {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("WWW-Authenticate", `Bearer realm="pxmld"`)
		apiv1.WriteError(w, http.StatusUnauthorized, apiv1.CodeUnauthorized,
			"this endpoint requires the server's bearer token (Authorization: Bearer ...)")
	})
}

// handleReplStream serves GET /v1/repl/stream. It is mounted outside the
// admission/inflight/deadline stack: a long-poll parked at the tail must
// not burn an inflight slot or be killed by the request deadline.
// Followers serve it too — their store streams exactly like a leader's,
// so replicas can chain.
func (s *Server) handleReplStream(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		apiv1.WriteError(w, http.StatusConflict, apiv1.CodeConflict,
			"server has no durable store to replicate")
		return
	}
	// A pull request carrying a higher epoch than ours is proof a
	// follower was promoted while we thought we were still the leader:
	// fence before serving a byte (see failover.go).
	repl.ServeStream(w, r, s.store, func(epoch uint64) { s.fenceSelf(epoch, "") })
}

// handleReplBootstrap serves GET /v1/repl/bootstrap: a tar of a fresh
// backup a new follower restores from.
func (s *Server) handleReplBootstrap(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		apiv1.WriteError(w, http.StatusConflict, apiv1.CodeConflict,
			"server has no durable store to replicate")
		return
	}
	repl.ServeBootstrap(w, r, s.store)
}

// replMetrics is the "replication" section of /v1/metrics.
type replMetrics struct {
	Role          string  `json:"role"`
	Epoch         uint64  `json:"epoch"`
	Leader        string  `json:"leader,omitempty"`
	Pos           string  `json:"pos"`
	LeaderEnd     string  `json:"leader_end,omitempty"`
	LagBytes      int64   `json:"lag_bytes"`
	StalenessS    float64 `json:"staleness_s"`
	CaughtUp      bool    `json:"caught_up"`
	Diverged      bool    `json:"diverged"`
	Ready         bool    `json:"ready"`
	LastStampUnix float64 `json:"last_stamp_unix,omitempty"`
	LastErr       string  `json:"last_err,omitempty"`
	Chunks        int64   `json:"chunks_applied"`
	Bytes         int64   `json:"bytes_applied"`
	Records       int64   `json:"records_applied"`
	Reconnects    int64   `json:"reconnects"`
}

// replSection builds the metrics section and refreshes the exported
// replication gauges (repl_lag_bytes, repl_staleness_ms, repl_diverged)
// so the statsd stream carries them too. Returns nil on a server without
// a durable store.
func (s *Server) replSection() *replMetrics {
	if !s.store.Durable() {
		return nil
	}
	epoch := s.store.Epoch()
	s.reg.Gauge("repl_epoch").Set(int64(epoch))
	f := s.follower.Load()
	if f == nil {
		m := &replMetrics{Role: "leader", Epoch: epoch, Pos: s.store.Pos().String(), CaughtUp: true, Ready: true}
		if fenced, _, leader := s.store.Fenced(); fenced {
			m.Role = "fenced"
			m.Leader = leader
			m.CaughtUp = false
			m.Ready = false
		}
		return m
	}
	st := f.puller.Status()
	staleness := st.Staleness(time.Now())
	ready := f.puller.Ready(f.maxStaleness)
	m := &replMetrics{
		Role:       "follower",
		Epoch:      epoch,
		Leader:     f.LeaderURL(),
		Pos:        st.Pos.String(),
		LagBytes:   st.LagBytes,
		CaughtUp:   st.CaughtUp,
		Diverged:   st.Diverged,
		Ready:      ready,
		LastErr:    st.LastErr,
		Chunks:     st.ChunksApplied,
		Bytes:      st.BytesApplied,
		Records:    st.RecordsApplied,
		Reconnects: st.Reconnects,
	}
	if !st.LeaderEnd.IsZero() {
		m.LeaderEnd = st.LeaderEnd.String()
	}
	if st.LastStampNanos > 0 {
		m.LastStampUnix = float64(st.LastStampNanos) / 1e9
	}
	// Staleness saturates (diverged / never synced); report a sentinel
	// rather than a 292-year float.
	if staleness > 365*24*time.Hour {
		m.StalenessS = -1
	} else {
		m.StalenessS = staleness.Seconds()
	}
	s.reg.Gauge("repl_lag_bytes").Set(st.LagBytes)
	if m.StalenessS >= 0 {
		s.reg.Gauge("repl_staleness_ms").Set(staleness.Milliseconds())
	} else {
		s.reg.Gauge("repl_staleness_ms").Set(-1)
	}
	var div int64
	if st.Diverged {
		div = 1
	}
	s.reg.Gauge("repl_diverged").Set(div)
	return m
}
