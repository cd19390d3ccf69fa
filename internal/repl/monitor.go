package repl

// The failover monitor is the flag-gated auto-promotion loop a follower
// runs when it is a designated failover candidate (pxmld
// -failover-priority). It rides the existing long-poll stream as its
// heartbeat: every successful exchange the Puller records (a chunk, a
// rotation cue, or a caught-up 204) refreshes Status.LastContact, so
// "the leader has been silent for the whole window" is exactly
// "LastContact is older than the window". No separate lease RPC exists
// to disagree with the replication stream about liveness.
//
// Priority staggers multiple candidates without coordination: candidate
// N waits N silence windows before acting, so the priority-1 follower
// moves first and the priority-2 follower only if the first one is dead
// too — by the time it checks, it has either heard from the new leader
// (contact refreshed, epoch bumped) or inherited the job.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"pxml/internal/logging"
)

// DefaultFailoverSilence is the leader-silence window that triggers
// auto-promotion when MonitorConfig.Silence is zero.
const DefaultFailoverSilence = 15 * time.Second

// MonitorConfig configures a failover Monitor.
type MonitorConfig struct {
	// Puller is the replication engine whose contact times and
	// divergence state the monitor watches. Required.
	Puller *Puller
	// Priority is this follower's failover rank, >= 1: the candidate
	// waits Priority consecutive silence windows before promoting, so
	// lower numbers act first. Required.
	Priority int
	// Silence is one leader-silence window (default
	// DefaultFailoverSilence).
	Silence time.Duration
	// Promote performs the actual promotion (the serving layer's
	// stop-puller → drain → store.Promote sequence, with force
	// semantics: the leader is presumed dead, so an unreachable drain
	// must not stop the failover). Required.
	Promote func(ctx context.Context) error
	// Logger receives monitor decisions, tagged component=repl; nil
	// discards them.
	Logger *slog.Logger
	// now and tick stub time in tests.
	now  func() time.Time
	tick time.Duration
}

// Monitor watches leader liveness and auto-promotes its follower after
// the configured silence.
type Monitor struct {
	cfg MonitorConfig
}

// NewMonitor validates cfg and returns a Monitor ready to Run.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Puller == nil || cfg.Promote == nil {
		return nil, fmt.Errorf("repl: monitor needs a puller and a promote function")
	}
	if cfg.Priority < 1 {
		return nil, fmt.Errorf("repl: monitor priority must be >= 1, got %d", cfg.Priority)
	}
	if cfg.Silence <= 0 {
		cfg.Silence = DefaultFailoverSilence
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	cfg.Logger = logging.OrDiscard(cfg.Logger).With("component", "repl")
	if cfg.tick <= 0 {
		cfg.tick = cfg.Silence / 10
		if cfg.tick < 50*time.Millisecond {
			cfg.tick = 50 * time.Millisecond
		}
	}
	return &Monitor{cfg: cfg}, nil
}

// window is how long the leader must be silent before this candidate
// promotes itself.
func (m *Monitor) window() time.Duration {
	return m.cfg.Silence * time.Duration(m.cfg.Priority)
}

// Run watches until ctx is cancelled or a promotion succeeds (returns
// nil). The silence clock starts at Run time, not at zero: a follower
// that boots into a dead cluster still waits its full window before
// claiming leadership, giving a live leader time to make contact. A
// diverged follower never promotes — its history forked from the
// cluster's, so making it the write authority would institutionalize
// the fork; Run parks until cancelled, logging once.
func (m *Monitor) Run(ctx context.Context) error {
	start := m.cfg.now()
	warnedDiverged := false
	promoteDelay := m.cfg.Silence // between failed promotion attempts
	ticker := time.NewTicker(m.cfg.tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		st := m.cfg.Puller.Status()
		if st.Diverged {
			if !warnedDiverged {
				warnedDiverged = true
				m.cfg.Logger.Warn("failover monitor: follower diverged; refusing to ever promote it (re-bootstrap required)")
			}
			continue
		}
		warnedDiverged = false
		last := st.LastContact
		if last.Before(start) {
			last = start
		}
		silent := m.cfg.now().Sub(last)
		if silent < m.window() {
			continue
		}
		m.cfg.Logger.Warn("failover monitor: leader silent; promoting",
			"silent_ms", silent.Milliseconds(), "window_ms", m.window().Milliseconds(), "priority", m.cfg.Priority)
		if err := m.cfg.Promote(ctx); err != nil {
			if errors.Is(err, context.Canceled) || ctx.Err() != nil {
				return ctx.Err()
			}
			m.cfg.Logger.Warn("failover monitor: promotion failed; will retry",
				"retry_in_ms", promoteDelay.Milliseconds(), "error", err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(promoteDelay):
			}
			continue
		}
		return nil // the serving layer logs the promotion
	}
}
