package repl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pxml/internal/fixtures"
	"pxml/internal/retry"
	"pxml/internal/store"
)

// TestStreamRequiresLeaderEpoch: a leader answer without a positive
// X-Pxml-Repl-Epoch is refused by Stream, so the puller applies none of
// its bytes, however well-formed they are.
func TestStreamRequiresLeaderEpoch(t *testing.T) {
	leader, _, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.Put("a", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	chunk, err := leader.ReadStream(store.Pos{Seg: 1, Off: 0}, MaxChunkBytes)
	if err != nil || len(chunk.Data) == 0 {
		t.Fatalf("ReadStream = %d bytes, %v", len(chunk.Data), err)
	}

	for _, epoch := range []string{"", "0"} {
		t.Run("epoch="+strconv.Quote(epoch), func(t *testing.T) {
			var mu sync.Mutex
			var requests []string
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				requests = append(requests, r.URL.Query().Get(ParamEpoch))
				mu.Unlock()
				h := w.Header()
				h.Set(HeaderFrom, chunk.From.String())
				h.Set(HeaderNext, chunk.Next.String())
				h.Set(HeaderEnd, chunk.End.String())
				h.Set(HeaderLag, "0")
				if epoch != "" {
					h.Set(HeaderEpoch, epoch)
				}
				w.Write(chunk.Data)
			}))
			defer ts.Close()

			follower, _, err := store.Open(t.TempDir(), store.Options{Follower: true})
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			client := &Client{BaseURL: ts.URL}
			if _, err := client.Stream(context.Background(), follower.Pos(), 0, 0, follower.Epoch()); err == nil || !strings.Contains(err.Error(), HeaderEpoch) {
				t.Fatalf("Stream = %v, want an error naming %s", err, HeaderEpoch)
			}

			p, err := NewPuller(PullerConfig{
				Store:   follower,
				Client:  client,
				Backoff: retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if err := p.Run(ctx); err != context.DeadlineExceeded {
				t.Fatalf("Run = %v, want the context deadline", err)
			}
			st := p.Status()
			if st.ChunksApplied != 0 || follower.Len() != 0 || follower.Pos() != (store.Pos{Seg: 1, Off: 0}) {
				t.Fatalf("follower applied an unstamped chunk: %+v, %d instances", st, follower.Len())
			}
			if !strings.Contains(st.LastErr, HeaderEpoch) {
				t.Fatalf("LastErr = %q, want the epoch header named", st.LastErr)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(requests) < 2 {
				t.Fatalf("puller made %d requests, want it to keep retrying", len(requests))
			}
			for _, got := range requests {
				if got != "1" {
					t.Fatalf("requests carried epoch %q, want every one to send epoch=1", requests)
				}
			}
		})
	}
}
