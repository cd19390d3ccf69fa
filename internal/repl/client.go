package repl

// Follower-side HTTP client: one Stream round trip, and the bootstrap
// download+restore that seeds an empty follower onto the leader's
// timeline.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"pxml/internal/apiv1"
	"pxml/internal/retry"
	"pxml/internal/store"
)

// ErrDiverged reports that the leader refused the follower's position as
// off its timeline (HTTP 409 timeline_diverged). The follower's WAL is
// not a prefix of the leader's history; replaying cannot fix that, only
// re-bootstrapping from a fresh backup can. Match with errors.Is.
var ErrDiverged = errors.New("repl: timeline diverged from leader")

// ErrUnauthorized reports a 401 from the leader: the replication surface
// wants a bearer token this client does not have (or has wrong). Match
// with errors.Is.
var ErrUnauthorized = errors.New("repl: leader rejected credentials")

// fencedError is a 409 epoch_fenced response: the node answering the
// stream has been superseded by a higher leader epoch. It matches
// store.ErrEpochFenced via errors.Is and carries the successor leader's
// URL when the fenced node named one (X-Pxml-Repl-Leader).
type fencedError struct {
	msg    string
	leader string
}

func (e *fencedError) Error() string {
	if e.leader != "" {
		return fmt.Sprintf("repl: %s (new leader %s)", e.msg, e.leader)
	}
	return "repl: " + e.msg
}

func (e *fencedError) Is(target error) bool { return target == store.ErrEpochFenced }

// FencedLeader extracts the successor leader URL from an epoch_fenced
// error chain ("" when the fenced node did not name one, or err is not
// a fencing error).
func FencedLeader(err error) string {
	var fe *fencedError
	if errors.As(err, &fe) {
		return fe.leader
	}
	return ""
}

// Client talks to one leader.
type Client struct {
	// BaseURL is the leader's root URL, e.g. "http://10.0.0.1:8080".
	BaseURL string
	// Token, when non-empty, is sent as a bearer token. Required when the
	// leader runs with -admin-token.
	Token string
	// HTTPClient defaults to http.DefaultClient. Stream long-polls, so
	// any client timeout must exceed MaxPollWait.
	HTTPClient *http.Client
	// Retry governs transient failures (network errors, 429/502/503/504)
	// within one Stream or Bootstrap call. The zero value means a single
	// attempt; the Puller layers its own reconnect loop on top.
	Retry retry.Policy
}

// Chunk is one successful Stream response.
type Chunk struct {
	// From is where Data starts: the requested position normalized past
	// any rotation boundary. Apply Data at From (store.ReplApply rotates
	// when From opens a later segment).
	From store.Pos
	// Next is where to resume streaming after applying Data.
	Next store.Pos
	// End is the leader's committed position at response time.
	End store.Pos
	// LagBytes is the committed byte lag remaining at Next.
	LagBytes int64
	// Data is raw CRC-framed WAL bytes (empty on a pure rotation cue or
	// when caught up).
	Data []byte
	// CaughtUp is true when the long poll expired with nothing new.
	CaughtUp bool
	// Epoch is the leader epoch the response was served under (always
	// at least 1).
	Epoch uint64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) get(ctx context.Context, path string, query url.Values) (*http.Response, error) {
	u := strings.TrimSuffix(c.BaseURL, "/") + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	return c.Retry.Do(ctx, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		if c.Token != "" {
			req.Header.Set("Authorization", "Bearer "+c.Token)
		}
		return c.httpClient().Do(req)
	})
}

// apiError reads a non-2xx body and maps it onto the typed sentinel
// errors where one exists.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	e := apiv1.ErrorFromBody(resp.StatusCode, body)
	switch e.Code {
	case apiv1.CodeTimelineDiverged:
		return fmt.Errorf("%w: %s", ErrDiverged, e.Message)
	case apiv1.CodeUnauthorized:
		return fmt.Errorf("%w: %s", ErrUnauthorized, e.Message)
	case apiv1.CodeEpochFenced:
		return &fencedError{msg: e.Message, leader: resp.Header.Get(HeaderLeader)}
	}
	return e
}

// Stream fetches one chunk of WAL starting at from, long-polling on the
// leader for up to wait when caught up (0 means the leader's default).
// epoch is the follower's highest-seen leader epoch; a leader superseded
// by it fences itself and answers 409 epoch_fenced. An answer without a
// positive X-Pxml-Repl-Epoch is an error: every leader stamps one.
func (c *Client) Stream(ctx context.Context, from store.Pos, maxBytes int, wait time.Duration, epoch uint64) (Chunk, error) {
	q := url.Values{ParamFrom: {from.String()}, ParamEpoch: {strconv.FormatUint(epoch, 10)}}
	if maxBytes > 0 {
		q.Set(ParamMaxBytes, strconv.Itoa(maxBytes))
	}
	if wait > 0 {
		q.Set(ParamWaitMS, strconv.FormatInt(int64(wait/time.Millisecond), 10))
	}
	resp, err := c.get(ctx, StreamPath, q)
	if err != nil {
		return Chunk{}, fmt.Errorf("repl: stream: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
	default:
		return Chunk{}, fmt.Errorf("repl: stream: %w", apiError(resp))
	}
	chunk := Chunk{CaughtUp: resp.StatusCode == http.StatusNoContent}
	if chunk.From, err = store.ParsePos(resp.Header.Get(HeaderFrom)); err != nil {
		return Chunk{}, fmt.Errorf("repl: stream: bad %s header: %w", HeaderFrom, err)
	}
	if chunk.Next, err = store.ParsePos(resp.Header.Get(HeaderNext)); err != nil {
		return Chunk{}, fmt.Errorf("repl: stream: bad %s header: %w", HeaderNext, err)
	}
	if chunk.End, err = store.ParsePos(resp.Header.Get(HeaderEnd)); err != nil {
		return Chunk{}, fmt.Errorf("repl: stream: bad %s header: %w", HeaderEnd, err)
	}
	if v := resp.Header.Get(HeaderLag); v != "" {
		if chunk.LagBytes, err = strconv.ParseInt(v, 10, 64); err != nil {
			return Chunk{}, fmt.Errorf("repl: stream: bad %s header: %q", HeaderLag, v)
		}
	}
	v := resp.Header.Get(HeaderEpoch)
	if chunk.Epoch, err = strconv.ParseUint(v, 10, 64); err != nil || chunk.Epoch == 0 {
		return Chunk{}, fmt.Errorf("repl: stream: bad %s header: %q", HeaderEpoch, v)
	}
	if resp.StatusCode == http.StatusOK {
		chunk.Data, err = io.ReadAll(io.LimitReader(resp.Body, MaxChunkBytes+1))
		if err != nil {
			return Chunk{}, fmt.Errorf("repl: stream: read body: %w", err)
		}
		if len(chunk.Data) > MaxChunkBytes {
			return Chunk{}, fmt.Errorf("repl: stream: chunk exceeds %d bytes", MaxChunkBytes)
		}
	}
	return chunk, nil
}

// Bootstrap downloads a fresh backup from the leader and restores it
// into dataDir (which must be empty or absent), landing the follower
// exactly on the leader's timeline: the restore keeps the leader's
// segment numbering, so the recovered Pos is directly resumable against
// the leader's stream.
func (c *Client) Bootstrap(ctx context.Context, dataDir string) (*store.RestoreResult, error) {
	resp, err := c.get(ctx, BootstrapPath, nil)
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: bootstrap: %w", apiError(resp))
	}
	tmp := dataDir + ".bootstrap"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, fmt.Errorf("repl: bootstrap: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("repl: bootstrap: %w", err)
	}
	defer os.RemoveAll(tmp)
	if err := extractTar(resp.Body, tmp); err != nil {
		return nil, err
	}
	// Restore verifies the manifest and proves the tree opens cleanly
	// before anything lands in dataDir.
	res, err := store.Restore(tmp, dataDir, store.RestoreOptions{})
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap restore: %w", err)
	}
	return res, nil
}
