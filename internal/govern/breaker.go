package govern

import (
	"sync"
	"time"
)

// BreakerState is one key's position in the closed → open → half-open
// cycle. The numeric values double as the breaker_state gauge encoding.
type BreakerState int

const (
	BreakerClosed   BreakerState = 0
	BreakerHalfOpen BreakerState = 1
	BreakerOpen     BreakerState = 2
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive trips (budget exhaustion,
	// deadline expiry, kernel panic) that opens a key's breaker.
	// <= 0 disables the breaker entirely.
	Threshold int
	// Cooldown is how long an open breaker sheds before admitting
	// half-open probes. 0 defaults to 10s.
	Cooldown time.Duration
	// Probes is the number of consecutive half-open successes required
	// to close again, and the cap on concurrent half-open probes.
	// 0 defaults to 1.
	Probes int
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
}

// Breaker is a per-key circuit breaker. The serving path keys it by
// pxql statement shape: a shape that keeps tripping its budget (a
// width-bomb ESTIMATE hammered in a retry loop) opens and sheds in
// O(map lookup) instead of re-running the estimator and parser for
// every attempt, then recloses via half-open probing once the bombs
// stop. All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*breakerEntry
}

type breakerEntry struct {
	state    BreakerState
	fails    int       // consecutive trips while closed
	openedAt time.Time // when the breaker last opened
	probing  int       // in-flight half-open probes
	succ     int       // consecutive half-open successes
	opens    int64     // cumulative closed→open transitions
	shed     int64     // requests rejected while open/half-open
}

// NewBreaker builds a breaker. A Threshold <= 0 returns nil — every
// method is nil-safe and behaves as an always-closed breaker, so
// "disabled" needs no call-site branching.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Second
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, m: make(map[string]*breakerEntry)}
}

// Allow reports whether a request for key may proceed. When it returns
// false, retryAfter is how long the caller should tell the client to
// wait (the cooldown remainder, or a short beat while a probe is in
// flight). Every Allow must be paired with exactly one Record for the
// same key once the request finishes.
func (b *Breaker) Allow(key string) (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(key)
	switch e.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		now := b.cfg.Now()
		if remain := e.openedAt.Add(b.cfg.Cooldown).Sub(now); remain > 0 {
			e.shed++
			return false, remain
		}
		// Cooldown elapsed: admit this request as the first probe.
		e.state = BreakerHalfOpen
		e.succ = 0
		e.probing = 1
		return true, 0
	default: // half-open
		if e.probing < b.cfg.Probes {
			e.probing++
			return true, 0
		}
		e.shed++
		return false, time.Second
	}
}

// Record reports the outcome of an admitted request: tripped=true means
// the request hit its budget, its deadline, or panicked — the failures
// the breaker exists to contain. Client-side cancellation is NOT a trip
// (the statement shape did nothing wrong) and callers must pass false.
func (b *Breaker) Record(key string, tripped bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(key)
	switch e.state {
	case BreakerClosed:
		if !tripped {
			e.fails = 0
			return
		}
		e.fails++
		if e.fails >= b.cfg.Threshold {
			e.state = BreakerOpen
			e.openedAt = b.cfg.Now()
			e.opens++
		}
	case BreakerOpen:
		// A straggler admitted before the breaker opened. A fresh trip
		// restarts the cooldown — failures are still arriving.
		if tripped {
			e.openedAt = b.cfg.Now()
		}
	default: // half-open: this is a probe landing
		if e.probing > 0 {
			e.probing--
		}
		if tripped {
			e.state = BreakerOpen
			e.openedAt = b.cfg.Now()
			e.opens++
			e.succ = 0
			e.probing = 0
			return
		}
		e.succ++
		if e.succ >= b.cfg.Probes {
			e.state = BreakerClosed
			e.fails = 0
			e.succ = 0
			e.probing = 0
		}
	}
}

// StateOf returns key's current state (closed for unknown keys).
func (b *Breaker) StateOf(key string) BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.m[key]; ok {
		return e.state
	}
	return BreakerClosed
}

// BreakerStatus is one key's observable state for /v1/metrics.
type BreakerStatus struct {
	State            string `json:"state"`
	ConsecutiveTrips int    `json:"consecutive_trips"`
	Opens            int64  `json:"opens"`
	Shed             int64  `json:"shed"`
}

// Status snapshots every key the breaker has seen.
func (b *Breaker) Status() map[string]BreakerStatus {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]BreakerStatus, len(b.m))
	for k, e := range b.m {
		out[k] = BreakerStatus{
			State:            e.state.String(),
			ConsecutiveTrips: e.fails,
			Opens:            e.opens,
			Shed:             e.shed,
		}
	}
	return out
}

func (b *Breaker) entry(key string) *breakerEntry {
	e, ok := b.m[key]
	if !ok {
		e = &breakerEntry{}
		b.m[key] = e
	}
	return e
}
