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

// TestDoCtxComputePanics: a compute that panics re-panics in its leader,
// hands the waiter an error wrapping the panic, caches nothing and leaves
// no flight behind — the next caller computes afresh instead of blocking
// until its deadline on a flight nobody will finish.
func TestDoCtxComputePanics(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.DoCtx(context.Background(), "k", func() (any, int64, error) {
			close(leaderIn)
			<-release
			panic(boom)
		})
	}()
	<-leaderIn
	waiterCtx := &joinCtx{Context: context.Background(), joined: make(chan struct{})}
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.DoCtx(waiterCtx, "k", func() (any, int64, error) {
			t.Error("waiter must not compute")
			return nil, 0, nil
		})
		waiterDone <- err
	}()
	<-waiterCtx.joined
	close(release)
	if p := <-leaderPanic; p != boom {
		t.Fatalf("leader recovered %v, want the compute's panic", p)
	}
	select {
	case err := <-waiterDone:
		if !errors.Is(err, boom) {
			t.Fatalf("waiter error = %v, want one wrapping the panic", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter still blocked on a flight whose leader panicked")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a panicked compute left a cached value")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	v, err := c.DoCtx(ctx, "k", func() (any, int64, error) { return "fresh", 8, nil })
	if err != nil || v != "fresh" {
		t.Fatalf("next caller: %v, %v; want a fresh compute", v, err)
	}
	if st := c.Stats(); st.Collapsed != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v: want the one waiter collapsed and the fresh value cached", st)
	}
}

// TestDoCtxFailedFlightIsNoHit: waiters that joined a compute which failed
// were served nothing, so they count as collapsed but not as hits; nor
// does a waiter that gave up before the compute finished.
func TestDoCtxFailedFlightIsNoHit(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.DoCtx(context.Background(), "k", func() (any, int64, error) {
			close(leaderIn)
			<-release
			return nil, 0, boom
		})
		leaderDone <- err
	}()
	<-leaderIn
	join := func(ctx context.Context, errs chan<- error) {
		_, err := c.DoCtx(ctx, "k", func() (any, int64, error) {
			t.Error("waiter must not compute")
			return nil, 0, nil
		})
		errs <- err
	}
	waiterErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		ctx := &joinCtx{Context: context.Background(), joined: make(chan struct{})}
		go join(ctx, waiterErrs)
		<-ctx.joined
	}
	cancelled, cancel := context.WithCancel(context.Background())
	quitter := &joinCtx{Context: cancelled, joined: make(chan struct{})}
	quitErr := make(chan error, 1)
	go join(quitter, quitErr)
	<-quitter.joined
	cancel()
	if err := <-quitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
	}
	close(release)
	for _, errs := range []chan error{leaderDone, waiterErrs, waiterErrs} {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("got %v, want the compute's error", err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 || st.Collapsed != 2 {
		t.Fatalf("stats %+v: want hits 0, misses 1, collapsed 2", st)
	}
}

// joinCtx closes joined the first time its Done is asked for, which DoCtx
// does only once the caller is waiting on a flight.
type joinCtx struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
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
