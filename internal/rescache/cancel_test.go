package rescache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDoCtxWaiterCancelled: a waiter joining an in-flight compute whose
// ctx dies must return promptly with ctx.Err(); the leader completes and
// still populates the cache for subsequent callers.
func TestDoCtxWaiterCancelled(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.DoCtx(context.Background(), "k", func() (any, int64, error) {
			close(leaderIn)
			<-release
			return "computed", 8, nil
		})
		if err != nil || v != "computed" {
			t.Errorf("leader: v=%v err=%v", v, err)
		}
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.DoCtx(ctx, "k", func() (any, int64, error) {
			t.Error("waiter must not compute")
			return nil, 0, nil
		})
		waiterDone <- err
	}()
	// Give the waiter time to join the flight, then abandon it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter still blocked on the flight leader")
	}

	// The leader is unaffected: it finishes and caches the value.
	close(release)
	wg.Wait()
	if v, ok := c.Get("k"); !ok || v != "computed" {
		t.Fatalf("leader result not cached after waiter cancellation: %v %v", v, ok)
	}
}

// TestDoCtxWaiterCompletesNormally: a live waiter still collapses onto
// the leader's result exactly as Do always did.
func TestDoCtxWaiterCompletesNormally(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.DoCtx(context.Background(), "k", func() (any, int64, error) {
			close(leaderIn)
			<-release
			return 42, 8, nil
		})
	}()
	<-leaderIn
	waiterDone := make(chan any, 1)
	go func() {
		v, err := c.DoCtx(context.Background(), "k", func() (any, int64, error) {
			t.Error("waiter must not compute")
			return nil, 0, nil
		})
		if err != nil {
			t.Errorf("waiter err: %v", err)
		}
		waiterDone <- v
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case v := <-waiterDone:
		if v != 42 {
			t.Fatalf("waiter got %v, want 42", v)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never unblocked")
	}
	st := c.Stats()
	if st.Collapsed != 1 {
		t.Fatalf("collapsed = %d, want 1", st.Collapsed)
	}
}
