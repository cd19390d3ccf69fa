package repl

// The Puller is the follower's replication engine: a single goroutine
// that pulls stream chunks from the leader and applies them to the
// local follower store, forever. It owns the reconnect backoff, the
// lag/staleness bookkeeping the serving layer exposes in /v1/metrics
// and /readyz, and the sticky-divergence rule: once the leader says the
// local WAL is off its timeline, the puller parks permanently not-ready
// rather than risk serving spliced history.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"

	"pxml/internal/logging"
	"pxml/internal/retry"
	"pxml/internal/store"
)

// PullerConfig configures a Puller. Store and Client are required;
// Store must have been opened with store.Options.Follower.
type PullerConfig struct {
	Store  *store.Store
	Client *Client
	// PollWait is the server-side long-poll per request (default
	// DefaultPollWait). It bounds how stale a caught-up follower's
	// freshness reading can get between confirmations.
	PollWait time.Duration
	// MaxChunk bounds one chunk's bytes (default MaxChunkBytes).
	MaxChunk int
	// Backoff paces reconnects after transient failures: BaseDelay up to
	// MaxDelay, doubling, jittered, reset on the next success. Default
	// 250ms..5s (retry.Default's shape). MaxAttempts is ignored — the
	// puller never gives up on transient errors.
	Backoff retry.Policy
	// OnRetarget, when set, observes leader changes: when the old leader
	// answers 409 epoch_fenced naming its successor, the puller swaps
	// Client.BaseURL to the new leader and reports the URL here so the
	// serving layer can retarget its write redirects too.
	OnRetarget func(leaderURL string)
	// Logger receives connection-state transitions, tagged
	// component=repl; nil discards them.
	Logger *slog.Logger
	// now stubs time in tests.
	now func() time.Time
}

// Status is a point-in-time snapshot of replication state.
type Status struct {
	// Pos is the follower's current WAL position.
	Pos store.Pos
	// LeaderEnd is the leader's committed position as of the last
	// successful exchange (zero before first contact).
	LeaderEnd store.Pos
	// LagBytes is the byte lag behind LeaderEnd as of the last exchange.
	LagBytes int64
	// LastStampNanos is the newest leader wall-clock stamp applied (unix
	// nanoseconds; 0 before any stamp).
	LastStampNanos int64
	// FreshAsOf is the newest instant the local data is known current
	// for: the wall-clock of the last applied stamp, or the local time
	// of the last caught-up confirmation, whichever is later. Zero until
	// the follower has synced once.
	FreshAsOf time.Time
	// LastContact is the local time of the last successful exchange with
	// the leader (zero before first contact).
	LastContact time.Time
	// CaughtUp reports whether the last exchange ended at the leader's
	// committed position.
	CaughtUp bool
	// Diverged reports the sticky divergence state: the leader rejected
	// this follower's WAL as off its timeline. Only a re-bootstrap
	// clears it.
	Diverged bool
	// LeaderEpoch is the highest leader epoch observed on the stream (0
	// before first contact).
	LeaderEpoch uint64
	// LastErr is the most recent transient error, cleared on success.
	LastErr string
	// Counters since the puller started.
	ChunksApplied  int64
	BytesApplied   int64
	RecordsApplied int64
	Reconnects     int64
}

// Staleness reports how far behind the leader the local data may be at
// now: time since FreshAsOf. Before the first sync it is time since the
// puller started; on a diverged follower it is effectively infinite.
func (s Status) Staleness(now time.Time) time.Duration {
	if s.Diverged || s.FreshAsOf.IsZero() {
		return 1<<63 - 1
	}
	d := now.Sub(s.FreshAsOf)
	if d < 0 {
		d = 0
	}
	return d
}

// Puller replicates one leader into one follower store.
type Puller struct {
	cfg PullerConfig

	mu     sync.Mutex
	status Status
}

// NewPuller validates cfg and returns a Puller ready to Run.
func NewPuller(cfg PullerConfig) (*Puller, error) {
	if cfg.Store == nil || cfg.Client == nil {
		return nil, fmt.Errorf("repl: puller needs a store and a client")
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = DefaultPollWait
	}
	if cfg.MaxChunk <= 0 || cfg.MaxChunk > MaxChunkBytes {
		cfg.MaxChunk = MaxChunkBytes
	}
	if cfg.Backoff.BaseDelay <= 0 {
		cfg.Backoff.BaseDelay = 250 * time.Millisecond
	}
	if cfg.Backoff.MaxDelay <= 0 {
		cfg.Backoff.MaxDelay = 5 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	cfg.Logger = logging.OrDiscard(cfg.Logger).With("component", "repl")
	return &Puller{cfg: cfg}, nil
}

// Status returns a snapshot of the replication state, with Pos read
// fresh from the store.
func (p *Puller) Status() Status {
	p.mu.Lock()
	s := p.status
	p.mu.Unlock()
	s.Pos = p.cfg.Store.Pos()
	if stamp := p.cfg.Store.LastReplStamp(); stamp > s.LastStampNanos {
		s.LastStampNanos = stamp
	}
	return s
}

// Ready reports whether the follower should serve: not diverged, synced
// at least once, and no staler than maxStaleness (0 disables the
// staleness gate but still requires one sync and no divergence).
func (p *Puller) Ready(maxStaleness time.Duration) bool {
	s := p.Status()
	if s.Diverged || s.FreshAsOf.IsZero() {
		return false
	}
	return maxStaleness <= 0 || s.Staleness(p.cfg.now()) <= maxStaleness
}

// Run pulls and applies until ctx is cancelled (returns ctx.Err()), the
// leader declares divergence (returns an error matching ErrDiverged),
// or the local store refuses an apply for a non-positional reason, e.g.
// it degraded (returns that error). Transient failures — network,
// overload, leader restarts — are retried forever with capped backoff.
func (p *Puller) Run(ctx context.Context) error {
	delay := p.cfg.Backoff.BaseDelay
	wasConnected := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		from := p.cfg.Store.Pos()
		chunk, err := p.cfg.Client.Stream(ctx, from, p.cfg.MaxChunk, p.cfg.PollWait, p.cfg.Store.Epoch())
		now := p.cfg.now()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrDiverged) {
				p.mu.Lock()
				p.status.Diverged = true
				p.status.CaughtUp = false
				p.status.LastErr = err.Error()
				p.mu.Unlock()
				return err
			}
			if errors.Is(err, store.ErrEpochFenced) {
				// The node we stream from was superseded. If it named its
				// successor, follow the new leader immediately; otherwise
				// keep polling with backoff — the fenced node learns the
				// successor from the demote notification or its own probe
				// and names it on a later response.
				if leader := FencedLeader(err); leader != "" && leader != p.cfg.Client.BaseURL {
					p.cfg.Logger.Info("leader fenced; retargeting", "old_leader", p.cfg.Client.BaseURL, "leader", leader)
					p.cfg.Client.BaseURL = leader
					if p.cfg.OnRetarget != nil {
						p.cfg.OnRetarget(leader)
					}
					p.mu.Lock()
					p.status.LastErr = ""
					p.status.Reconnects++
					p.mu.Unlock()
					delay = p.cfg.Backoff.BaseDelay
					wasConnected = false
					continue
				}
			}
			p.mu.Lock()
			p.status.LastErr = err.Error()
			p.status.CaughtUp = false
			if wasConnected {
				p.status.Reconnects++
			}
			p.mu.Unlock()
			if wasConnected {
				p.cfg.Logger.Warn("lost leader", "pos", from.String(), "error", err)
			}
			wasConnected = false
			// Jittered capped exponential backoff, reset on success.
			wait := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			if delay *= 2; delay > p.cfg.Backoff.MaxDelay {
				delay = p.cfg.Backoff.MaxDelay
			}
			continue
		}
		delay = p.cfg.Backoff.BaseDelay
		if !wasConnected {
			p.cfg.Logger.Info("streaming from leader", "leader", p.cfg.Client.BaseURL,
				"pos", chunk.From.String(), "lag_bytes", chunk.LagBytes)
		}
		wasConnected = true

		if len(chunk.Data) == 0 && chunk.From == from {
			// Caught up: the long poll confirmed nothing is missing as of
			// now. The response still carries the leader's epoch — adopt it,
			// or a follower bootstrapped straight to the leader's position
			// (no chunk ever flows) would never learn the current era.
			if chunk.Epoch > p.cfg.Store.Epoch() {
				if err := p.cfg.Store.AdoptEpoch(chunk.Epoch); err != nil {
					p.cfg.Logger.Warn("epoch adopt failed", "epoch", chunk.Epoch, "error", err)
				}
			}
			p.noteExchange(chunk, now, true)
			continue
		}
		res, err := p.cfg.Store.ReplApply(chunk.From, chunk.Epoch, chunk.Data)
		if err != nil {
			if errors.Is(err, store.ErrApplyMismatch) {
				// Raced a concurrent position change (e.g. recovery); loop
				// re-reads Pos and resumes.
				p.mu.Lock()
				p.status.LastErr = err.Error()
				p.mu.Unlock()
				continue
			}
			if errors.Is(err, store.ErrEpochFenced) {
				// The chunk came from a superseded era (our store has seen
				// a higher epoch than the node serving us). Don't apply,
				// don't die: back off and re-poll — our requests carry our
				// epoch, so a stale leader fences itself and names the
				// successor, and the retarget path above takes over.
				p.mu.Lock()
				p.status.LastErr = err.Error()
				p.status.CaughtUp = false
				p.mu.Unlock()
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(delay):
				}
				continue
			}
			p.mu.Lock()
			p.status.LastErr = err.Error()
			p.status.CaughtUp = false
			p.mu.Unlock()
			return fmt.Errorf("repl: apply at %s: %w", chunk.From, err)
		}
		p.mu.Lock()
		p.status.ChunksApplied++
		p.status.BytesApplied += int64(len(chunk.Data))
		p.status.RecordsApplied += int64(res.Records)
		if res.StampNanos > p.status.LastStampNanos {
			p.status.LastStampNanos = res.StampNanos
			if t := time.Unix(0, res.StampNanos); t.After(p.status.FreshAsOf) {
				p.status.FreshAsOf = t
			}
		}
		p.mu.Unlock()
		p.noteExchange(chunk, now, res.Pos == chunk.End)
	}
}

// noteExchange records a successful leader exchange.
func (p *Puller) noteExchange(chunk Chunk, now time.Time, caughtUp bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.status.LastContact = now
	p.status.LeaderEnd = chunk.End
	p.status.LagBytes = chunk.LagBytes
	p.status.CaughtUp = caughtUp
	p.status.LastErr = ""
	if chunk.Epoch > p.status.LeaderEpoch {
		p.status.LeaderEpoch = chunk.Epoch
	}
	if caughtUp && now.After(p.status.FreshAsOf) {
		p.status.FreshAsOf = now
	}
}
