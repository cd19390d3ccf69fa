// Package repl implements streaming WAL replication between pxmld
// nodes: a leader serves its write-ahead log as raw CRC-framed chunks
// addressed by store.Pos, and followers replay that stream into a
// byte-identical local WAL through store.ReplApply, serving reads from
// their own warm engines while routing writes back to the leader.
//
// The wire protocol is deliberately thin — the WAL frame format already
// self-describes and self-verifies (see internal/store), so replication
// ships segment bytes verbatim and carries positions in headers:
//
//	GET /v1/repl/stream?from=SEG:OFF&max_bytes=N&wait_ms=MS&epoch=E
//	  200  body = raw frames; X-Pxml-Repl-From names where they start
//	       (the requested position normalized past a rotation boundary —
//	       an empty 200 body with a moved From is the rotation cue),
//	       X-Pxml-Repl-Next where to resume, X-Pxml-Repl-End the
//	       leader's committed position, X-Pxml-Repl-Lag-Bytes the byte
//	       lag at Next, X-Pxml-Repl-Epoch the leader epoch the bytes
//	       were committed under.
//	  204  caught up: the long poll expired with nothing new (epoch
//	       header still present).
//	  409  {"error":{"code":"timeline_diverged"}} — the position is not
//	       on this leader's timeline (restore gap, trimmed history, or
//	       bytes the leader never wrote). The follower cannot catch up
//	       by replaying and must re-bootstrap.
//	  409  {"error":{"code":"epoch_fenced"}} — this node has been
//	       superseded by a higher leader epoch and no longer serves the
//	       stream; X-Pxml-Repl-Leader names the successor when known, so
//	       the puller can retarget. The epoch=E request parameter
//	       (optional on the wire; Client always sends it) is the
//	       follower's highest-seen epoch: a leader that receives a
//	       higher one than its own fences itself on the spot.
//	  401  bearer token required/wrong (when the leader enables auth).
//
//	GET /v1/repl/bootstrap
//	  200  application/x-tar of a fresh, verified store backup. The
//	       follower unpacks and restores it (keeping the leader's
//	       segment numbering), then resumes the stream from the restored
//	       position.
//
// Divergence is sticky by design: a follower whose WAL is not a prefix
// of the leader's history must never serve spliced data, so the puller
// parks not-ready until an operator re-bootstraps it.
package repl

import "time"

// Route paths, shared by the leader-side handlers and the client.
const (
	StreamPath    = "/v1/repl/stream"
	BootstrapPath = "/v1/repl/bootstrap"
	// EpochPath answers the lightweight peer epoch probe:
	// {"epoch":N,"role":"leader|follower|fenced","leader":"url"}.
	EpochPath = "/v1/repl/epoch"
)

// Stream response headers. Positions render as "seg:off" (store.Pos).
const (
	HeaderFrom = "X-Pxml-Repl-From"
	HeaderNext = "X-Pxml-Repl-Next"
	HeaderEnd  = "X-Pxml-Repl-End"
	HeaderLag  = "X-Pxml-Repl-Lag-Bytes"
	// HeaderEpoch carries the leader epoch a stream (or bootstrap)
	// response was served under.
	HeaderEpoch = "X-Pxml-Repl-Epoch"
	// HeaderLeader, on an epoch_fenced 409, names the successor leader's
	// base URL when the fenced node knows it.
	HeaderLeader = "X-Pxml-Repl-Leader"
)

// Stream request query parameters.
const (
	ParamFrom     = "from"
	ParamMaxBytes = "max_bytes"
	ParamWaitMS   = "wait_ms"
	// ParamEpoch is the follower's highest-seen leader epoch; a leader
	// that sees a higher epoch than its own in a pull request has been
	// superseded and fences itself.
	ParamEpoch = "epoch"
)

// DefaultPollWait is how long a stream request long-polls at the tail
// before answering 204, unless the client asks otherwise.
const DefaultPollWait = 2 * time.Second

// MaxPollWait caps client-requested long-poll waits so a stream request
// can never pin a connection indefinitely.
const MaxPollWait = 30 * time.Second

// MaxChunkBytes caps one stream response body. Larger catch-ups take
// multiple round trips, which keeps per-request memory bounded on both
// sides and lets lag metrics refresh as the follower closes the gap.
const MaxChunkBytes = 4 << 20
