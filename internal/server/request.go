package server

// What one request owns while it is served: the pooled state instrument
// hands down as the ResponseWriter, and the lazy request deadline.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"pxml/internal/metrics"
)

// reqState is one request's scratch: the status recorder every handler
// writes through, the buffer a statement body is read into and the buffer
// the query response is rendered into. instrument takes one from statePool
// and returns it when the handler has returned; nothing may keep the
// ResponseWriter, body or out beyond that (a statement the result cache
// does not hold is copied into a string before the engine evaluates it).
type reqState struct {
	http.ResponseWriter
	status  int
	bytes   int
	wrote   bool
	body    bytes.Buffer
	limited io.LimitedReader // readBody's, kept here so that it is not allocated
	out     []byte
	// name is the {name} segment of the route serving the request,
	// unescaped, and "" on a route without one: the router's match.
	name string

	// start is instrument's one clock read at arrival: the instant the
	// request's admission and deadline are reckoned from and its latencies
	// measured from.
	start time.Time
	// timers are what instrument observes with the request's latency
	// beside http_latency: the http_latency.<endpoint> timer of the route
	// that served the request, set by its stack, and, for a query the result
	// cache answered, the engine's latency and pxql_latency.<shape>, set by
	// handleQuery. A nil slot is skipped.
	timers [3]*metrics.Timer
	// deadline is the request deadline once arm has made it: withDeadline
	// arms it before its route's handler runs, handleQuery only on a miss.
	// instrument settles it when the handler has returned.
	deadline *deadlineCtx
}

var statePool = sync.Pool{New: func() any { return new(reqState) }}

// maxPooledBuf is the largest buffer a state takes back to the pool, so
// one megabyte statement does not stay resident behind a thousand small ones.
const maxPooledBuf = 16 << 10

func (st *reqState) release() {
	st.ResponseWriter, st.timers, st.name, st.deadline = nil, [3]*metrics.Timer{}, "", nil
	if st.body.Cap() > maxPooledBuf {
		st.body = bytes.Buffer{}
	}
	if cap(st.out) > maxPooledBuf {
		st.out = nil
	}
	statePool.Put(st)
}

func (st *reqState) WriteHeader(code int) {
	st.status = code
	st.wrote = true
	st.ResponseWriter.WriteHeader(code)
}

func (st *reqState) Write(b []byte) (int, error) {
	st.wrote = true
	n, err := st.ResponseWriter.Write(b)
	st.bytes += n
	return n, err
}

// readBody reads all of r into the state's body buffer. A body of more
// than limit bytes fails with the *http.MaxBytesError an
// http.MaxBytesReader of that limit reports, having read limit+1 bytes at
// most.
func (st *reqState) readBody(r io.Reader, limit int64) ([]byte, error) {
	st.limited = io.LimitedReader{R: r, N: limit + 1}
	st.body.Reset()
	_, err := st.body.ReadFrom(&st.limited)
	st.limited.R = nil
	if err != nil {
		return nil, err
	}
	if int64(st.body.Len()) > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return st.body.Bytes(), nil
}

// arm returns the request deadline, timeout after the request's arrival,
// as a context under parent that instrument settles, or parent itself when
// timeout is not positive. It reads no clock.
func (st *reqState) arm(parent context.Context, timeout time.Duration) context.Context {
	if timeout <= 0 {
		return parent
	}
	st.deadline = newDeadlineCtx(parent, st.start.Add(timeout))
	return st.deadline
}

// deadlineCtx is the request deadline: a context that expires at a fixed
// instant and costs nothing until someone waits on it. Deadline and Err
// compare against the clock; the Done channel, the timer that closes it and
// the hook on the parent's cancellation exist only from the first Done call
// on — a request waiting on another's result-cache flight, or a batch
// statement waiting for a worker slot. The governor reads Err once per
// quantum and never asks for Done; a cached answer has none.
//
// It is allocated by each request that arms it and never pooled: a context
// outlives the call it was made for whenever something derived from it does
// (a child context, a result-cache flight other requests joined), and a
// recycled one would hand those holders the next request's deadline.
type deadlineCtx struct {
	parent   context.Context
	deadline time.Time

	mu         sync.Mutex
	err        error         // set once, by cancel
	done       chan struct{} // nil until the first Done
	timer      *time.Timer   // armed with done
	stopParent func() bool   // unhooks from parent, set with done
	after      map[*func()]struct{}
}

// newDeadlineCtx returns a context that expires at deadline, or at the
// parent's deadline if that is earlier. It reads no clock.
func newDeadlineCtx(parent context.Context, deadline time.Time) *deadlineCtx {
	c := &deadlineCtx{parent: parent, deadline: deadline}
	if pd, ok := parent.Deadline(); ok && pd.Before(deadline) {
		c.deadline = pd
	}
	return c
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Value(key any) any { return c.parent.Value(key) }

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if err = c.parent.Err(); err == nil && time.Until(c.deadline) > 0 {
		return nil
	}
	if err == nil {
		err = context.DeadlineExceeded
	}
	return c.cancel(err)
}

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
			return c.done
		}
		c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.cancel(context.DeadlineExceeded) })
		if c.parent.Done() != nil {
			c.stopParent = context.AfterFunc(c.parent, func() { c.cancel(c.parent.Err()) })
		}
	}
	return c.done
}

// AfterFunc is the hook context.WithCancel and its kin look for on a parent
// that is not one of the package's own: with it a child registers here
// instead of parking a goroutine on Done for as long as it lives. f runs on
// its own goroutine once the context is done; stop reports whether it kept
// f from running.
func (c *deadlineCtx) AfterFunc(f func()) (stop func() bool) {
	c.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	if c.after == nil {
		c.after = make(map[*func()]struct{})
	}
	c.after[&f] = struct{}{}
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, pending := c.after[&f]
		delete(c.after, &f)
		return pending
	}
}

// cancel settles the context with err unless it is settled already, and
// returns what it settled with. instrument calls it with context.Canceled
// when the handler returns, which is also what releases the timer and the
// parent hook.
func (c *deadlineCtx) cancel(err error) error {
	c.mu.Lock()
	if c.err != nil {
		defer c.mu.Unlock()
		return c.err
	}
	c.err = err
	if c.done != nil {
		close(c.done)
		c.timer.Stop()
		if c.stopParent != nil {
			c.stopParent()
		}
	}
	after := c.after
	c.after = nil
	c.mu.Unlock()
	for f := range after {
		go (*f)()
	}
	return err
}
