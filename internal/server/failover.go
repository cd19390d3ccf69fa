package server

// Supervised failover: promoting a follower into the leader role, and
// the fencing machinery that keeps the old leader from ever accepting a
// write once it has been superseded.
//
// The protocol has no quorum — it is supervised (an operator or the
// flag-gated failover monitor decides), and split-brain is prevented by
// epoch fencing instead of election:
//
//  1. Promote (POST /v1/admin/promote on a follower) stops the puller,
//     drains the final chunks from the old leader if it is still
//     reachable, bumps the persisted epoch, and flips the store into
//     leader mode live. Without -force a failed drain rolls back to
//     following and reports the exact byte gap; with force the gap is
//     reported but the promotion proceeds (those unreplicated
//     acknowledged writes are lost — the operator chose availability).
//  2. The new leader best-effort notifies the old one (POST
//     /v1/admin/demote) so it fences immediately instead of on first
//     contact with the new era.
//  3. Every other path a stale leader could learn the truth from also
//     fences it: followers' pull requests carry their highest-seen
//     epoch (see ServeStream's onSuperseded), and a leader with
//     configured peers probes their /v1/repl/epoch — once at startup
//     *before serving any write* (so a rebooted old leader cannot
//     accept even one), and periodically while running.
//
// Fencing is sticky and persisted (see store/epoch.go): a fenced node
// serves reads, 307s writes to its successor once it knows one, and
// rejoins the cluster only by wiping its data directory and
// re-bootstrapping as a follower.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/repl"
	"pxml/internal/store"
)

// defaultProbeInterval paces the peer epoch probe while leading, unless
// Config.ProbeInterval overrides it.
const defaultProbeInterval = 5 * time.Second

// drainWindow bounds how long a promotion tries to pull the final
// chunks out of the old leader before deciding it is unreachable.
const drainWindow = 5 * time.Second

// promoteResult is the POST /v1/admin/promote response body.
type promoteResult struct {
	// Epoch is the new leadership era this node now writes under.
	Epoch uint64 `json:"epoch"`
	// Pos is the WAL position at promotion.
	Pos string `json:"pos"`
	// Forced reports that -force semantics applied.
	Forced bool `json:"forced"`
	// Drained reports whether the old leader was fully drained before
	// the role flip; false means GapBytes acknowledged bytes (as of the
	// last successful contact) may be lost.
	Drained bool `json:"drained"`
	// GapBytes is the known byte lag behind the old leader when the
	// drain gave up (0 when drained, or when the old leader was never
	// reachable to measure).
	GapBytes int64 `json:"gap_bytes"`
	// DrainErr is the final drain error when Drained is false.
	DrainErr string `json:"drain_err,omitempty"`
}

// PromoteSelf turns this follower into the leader: stop pulling, drain
// what remains on the old leader, bump the epoch durably, flip the
// store's role live, and start serving writes. Without force a failed
// drain aborts the promotion and resumes following (the returned error
// reports the position gap); with force the promotion proceeds anyway.
// Safe for concurrent callers; the losers of the race get
// store.ErrNotFollower once the winner has flipped.
func (s *Server) PromoteSelf(ctx context.Context, force bool) (*promoteResult, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	f := s.follower.Load()
	if f == nil {
		return nil, fmt.Errorf("%w: this node is not following anyone", store.ErrNotFollower)
	}
	// Retire the monitor (it must not fire a second promotion mid-flight;
	// if it is the caller, its context was detached) and stop the puller
	// so the drain below owns the client exclusively.
	if f.monCancel != nil {
		f.monCancel()
	}
	f.pullCancel()
	<-f.pullDone

	res := &promoteResult{Forced: force}
	drainErr := s.drainOldLeader(ctx, f, res)
	if drainErr != nil && !force {
		// Roll back to following: rebuild the pull loop against the
		// current leader URL and report the gap. cfg mirrors the original
		// follower configuration with the live (possibly retargeted)
		// leader address.
		cfg := s.cfg
		cfg.FollowLeader = f.LeaderURL()
		if err := s.startFollower(cfg); err != nil {
			return nil, fmt.Errorf("promote aborted (%v) and follower restart failed: %v", drainErr, err)
		}
		return nil, fmt.Errorf("promote aborted: old leader not drained (gap %d bytes as of last contact): %w (use force to promote anyway and accept the loss)",
			res.GapBytes, drainErr)
	}
	epoch, err := s.store.Promote()
	if err != nil {
		// The store refused (degraded, closed, or lost a promote race).
		// Resume following so the node is not left in limbo.
		cfg := s.cfg
		cfg.FollowLeader = f.LeaderURL()
		if rerr := s.startFollower(cfg); rerr != nil {
			s.log.Error("follower restart after failed promote", "error", rerr)
		}
		return nil, err
	}
	s.follower.Store(nil)
	res.Epoch = epoch
	res.Pos = s.store.Pos().String()
	res.Drained = drainErr == nil
	if drainErr != nil {
		res.DrainErr = drainErr.Error()
	}
	s.log.Info("promoted to leader", "epoch", epoch, "pos", res.Pos,
		"drained", res.Drained, "gap_bytes", res.GapBytes, "forced", force)
	// The old leader (if it ever comes back) must learn it was
	// superseded even before any follower contacts it.
	go s.notifyDemote(f.LeaderURL(), epoch)
	s.startProber()
	return res, nil
}

// drainOldLeader pulls the remaining WAL out of the old leader until
// caught up, filling res.GapBytes with the best known byte gap when it
// cannot finish. The puller is stopped, so the follower store and the
// repl client are exclusively ours here.
func (s *Server) drainOldLeader(ctx context.Context, f *followerState, res *promoteResult) error {
	st := f.puller.Status()
	res.GapBytes = st.LagBytes
	if st.Diverged {
		return fmt.Errorf("follower diverged from the old leader; its history is not drainable")
	}
	dctx, cancel := context.WithTimeout(ctx, drainWindow)
	defer cancel()
	var lastErr error
	for {
		if dctx.Err() != nil {
			if lastErr == nil {
				lastErr = dctx.Err()
			}
			return fmt.Errorf("drain window expired: %w", lastErr)
		}
		from := s.store.Pos()
		// Short poll: we want "is there anything left", not a parked tail.
		chunk, err := f.client.Stream(dctx, from, repl.MaxChunkBytes, 50*time.Millisecond, s.store.Epoch())
		if err != nil {
			if errors.Is(err, repl.ErrDiverged) {
				return fmt.Errorf("old leader rejected our position as diverged: %w", err)
			}
			lastErr = err
			// Brief pause, then retry inside the window: the old leader
			// may be mid-crash but its listener still settling.
			select {
			case <-dctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		res.GapBytes = chunk.LagBytes
		if len(chunk.Data) == 0 && chunk.From == from {
			res.GapBytes = 0
			return nil // caught up: nothing acknowledged is left behind
		}
		if _, err := s.store.ReplApply(chunk.From, chunk.Epoch, chunk.Data); err != nil {
			return fmt.Errorf("drain apply at %s: %w", chunk.From, err)
		}
	}
}

// fenceSelf fences this node at epoch (recording leaderURL when known);
// the store logs the transition once, and a fence it refuses or cannot
// persist is logged here. No-op on followers.
func (s *Server) fenceSelf(epoch uint64, leaderURL string) {
	if s.store.IsFollower() {
		return
	}
	if err := s.store.Fence(epoch, leaderURL); err != nil {
		s.log.Warn("fence failed", "epoch", epoch, "error", err)
	}
}

// notifyDemote tells the old leader it has been superseded. Best
// effort: the old leader is usually dead at this point — if it is not,
// this is what flips it read-only before any client retries a write
// against it.
func (s *Server) notifyDemote(oldLeader string, epoch uint64) {
	if oldLeader == "" {
		return
	}
	body, _ := json.Marshal(map[string]any{"epoch": epoch, "leader": s.advertiseURL})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(oldLeader, "/")+apiv1.Prefix+"/admin/demote", strings.NewReader(string(body)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if s.outboundToken != "" {
		req.Header.Set("Authorization", "Bearer "+s.outboundToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.log.Info("demote notification undeliverable (old leader down?)", "target", oldLeader, "error", err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
}

// epochInfo is the GET /v1/repl/epoch response body.
type epochInfo struct {
	Epoch uint64 `json:"epoch"`
	Role  string `json:"role"`
	// Leader is where writes belong, as far as this node knows: its own
	// advertise URL when leading, its leader when following, its
	// successor when fenced. Empty when unknown.
	Leader string `json:"leader,omitempty"`
}

func (s *Server) epochInfo() epochInfo {
	info := epochInfo{Epoch: s.store.Epoch()}
	switch {
	case s.store.IsFollower():
		info.Role = "follower"
		if f := s.follower.Load(); f != nil {
			info.Leader = f.LeaderURL()
		}
	default:
		if fenced, _, leader := s.store.Fenced(); fenced {
			info.Role = "fenced"
			info.Leader = leader
		} else {
			info.Role = "leader"
			info.Leader = s.advertiseURL
		}
	}
	return info
}

// handleReplEpoch serves GET /v1/repl/epoch: the lightweight peer epoch
// probe. Token-gated like the rest of the replication surface, mounted
// outside admission so probes keep answering under load.
func (s *Server) handleReplEpoch(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		apiv1.WriteError(w, http.StatusConflict, apiv1.CodeConflict,
			"server has no durable store, hence no replication epoch")
		return
	}
	writeJSON(w, http.StatusOK, s.epochInfo())
}

// handlePromote serves POST /v1/admin/promote?force=1 on a follower.
func (s *Server) handlePromote(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, fmt.Errorf("server has no durable store to promote"))
		return
	}
	force := r.URL.Query().Get("force") != ""
	res, err := s.PromoteSelf(ctx, force)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFollower):
			httpError(w, http.StatusConflict, apiv1.CodeNotFollower, err)
		case errors.Is(err, store.ErrDegraded):
			apiv1.WriteErrorRetry(w, http.StatusServiceUnavailable, apiv1.CodeDegraded, err.Error(), time.Second)
		default:
			httpError(w, http.StatusConflict, apiv1.CodeConflict, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleDemote serves POST /v1/admin/demote: the new leader (or an
// operator) telling this node a higher epoch exists. The node fences
// itself when the claim is higher than its own era; a stale or equal
// claim is refused — fencing on rumor alone would let any caller with
// the token turn the real leader read-only.
func (s *Server) handleDemote(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, fmt.Errorf("server has no durable store to demote"))
		return
	}
	var req struct {
		Epoch  uint64 `json:"epoch"`
		Leader string `json:"leader"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<10))
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("decode demote request: %w", err))
		return
	}
	if req.Epoch == 0 {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("demote needs the superseding epoch"))
		return
	}
	if s.store.IsFollower() {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, fmt.Errorf("node is already a follower"))
		return
	}
	own := s.store.Epoch()
	fenced, _, _ := s.store.Fenced()
	if req.Epoch < own || (req.Epoch == own && !fenced) {
		httpError(w, http.StatusConflict, apiv1.CodeConflict,
			fmt.Errorf("demote at epoch %d refused: this node's epoch %d is not superseded", req.Epoch, own))
		return
	}
	s.fenceSelf(req.Epoch, req.Leader)
	writeJSON(w, http.StatusOK, s.epochInfo())
}

// probePeersOnce asks every configured peer for its epoch, fencing this
// node if any reports a higher era (or the same era led by someone
// else's successor — impossible without a higher epoch, so higher is
// the only trigger). Unreachable peers are no objection: without a
// quorum this probe cannot distinguish a dead peer from a partitioned
// one, which is exactly why promotion is supervised.
func (s *Server) probePeersOnce(ctx context.Context) {
	for _, peer := range s.peers {
		if info, err := s.probePeer(ctx, peer); err == nil && info.Epoch > s.store.Epoch() {
			// info.Leader names where writes belong as far as that peer
			// knows, whatever its role; trust it the same way the fenced
			// 409's X-Pxml-Repl-Leader header is trusted.
			s.fenceSelf(info.Epoch, info.Leader)
		}
	}
}

func (s *Server) probePeer(ctx context.Context, peer string) (epochInfo, error) {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet,
		strings.TrimSuffix(peer, "/")+repl.EpochPath, nil)
	if err != nil {
		return epochInfo{}, err
	}
	if s.outboundToken != "" {
		req.Header.Set("Authorization", "Bearer "+s.outboundToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return epochInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return epochInfo{}, fmt.Errorf("peer %s: HTTP %d", peer, resp.StatusCode)
	}
	var info epochInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&info); err != nil {
		return epochInfo{}, err
	}
	return info, nil
}

// startProber starts the periodic peer epoch probe, once. It runs while
// the node believes it is the leader and stops at Close; a fenced or
// demoted node keeps probing harmlessly (fenceSelf no-ops).
func (s *Server) startProber() {
	if len(s.peers) == 0 {
		return
	}
	s.proberMu.Lock()
	defer s.proberMu.Unlock()
	if s.proberDone != nil {
		return // already running
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.proberCancel = cancel
	done := make(chan struct{})
	s.proberDone = done
	interval := s.probeInterval
	if interval <= 0 {
		interval = defaultProbeInterval
	}
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			if s.store.IsFollower() {
				continue
			}
			s.probePeersOnce(ctx)
		}
	}()
}

// stopProber stops the periodic probe (idempotent; Close path).
func (s *Server) stopProber() {
	s.proberMu.Lock()
	cancel, done := s.proberCancel, s.proberDone
	s.proberCancel, s.proberDone = nil, nil
	s.proberMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}
