// Package admission implements per-tenant request admission control for
// the pxmld server: token-bucket rate quotas with configurable rate and
// burst, plus weighted fair sharing of the server's inflight capacity
// under overload. It sits in front of the global max-inflight shedder —
// a tenant that exhausts its quota is shed with 429 and a Retry-After
// hint before it can queue on the shared semaphore, so one hot tenant
// cannot starve the others.
//
// Tenants are keyed by instance name (the unit of isolation everywhere
// else in pxmld: storage, caching, and now capacity). The zero tenant ""
// groups requests that target no instance (catalog listings, admin).
//
// The controller is safe for concurrent use. Admit takes one short mutex
// — the shared bucket map plus the inflight accounting — which is
// negligible next to a statement evaluation.
package admission

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pxml/internal/metrics"
)

// Quota bounds one tenant's request rate.
type Quota struct {
	// Rate is the sustained admission rate in requests per second.
	// Zero or negative means unlimited (no token bucket for the tenant).
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity: how many requests may be admitted
	// instantaneously above the sustained rate. Admit spends one token
	// per request, so Burst < 1 with Rate > 0 admits nothing; Validate
	// rejects it.
	Burst float64 `json:"burst"`
	// Weight is the tenant's share of inflight capacity under overload,
	// relative to the other active tenants. Zero or negative defaults
	// to 1.
	Weight float64 `json:"weight"`
}

// Unlimited reports whether the quota imposes no rate bound.
func (q Quota) Unlimited() bool { return q.Rate <= 0 }

// Validate rejects quotas that silently admit nothing or weigh nothing.
func (q Quota) Validate() error {
	if q.Rate > 0 && q.Burst < 1 {
		return fmt.Errorf("quota burst %g < 1 with rate %g would admit nothing", q.Burst, q.Rate)
	}
	if q.Weight < 0 {
		return fmt.Errorf("quota weight %g is negative", q.Weight)
	}
	return nil
}

// Config assembles a Controller.
type Config struct {
	// Default applies to every tenant without an explicit entry in
	// Tenants. The zero value (unlimited, weight 1) admits everything —
	// the controller then only enforces fairness under overload.
	Default Quota
	// Tenants maps tenant (instance) names to their quotas.
	Tenants map[string]Quota
	// InflightLimit is the server's max-inflight bound that fairness
	// divides under overload. Zero disables the fairness tier (the rate
	// quotas still apply).
	InflightLimit int
	// Registry, when set, receives per-tenant admitted/shed counters
	// (admission_admitted.<tenant>, admission_shed.<tenant>) plus the
	// totals, so the statsd exporter picks them up for free.
	Registry *metrics.Registry
	// Now is the clock, injectable for tests. Defaults to time.Now.
	Now func() time.Time
}

// overloadFraction: fairness engages at 75% inflight utilisation. Below
// that there is spare capacity and shedding an in-quota request would be
// pure waste; above it the shared semaphore is close to queuing.
const overloadFraction = 0.75

// Decision is the outcome of one Admit call.
type Decision struct {
	// OK reports whether the request may proceed. When true the caller
	// MUST pair the Admit with Release(tenant) once the request ends.
	OK bool
	// RetryAfter hints when the tenant's bucket will hold a full token
	// again (zero when shed for fairness: retry immediately after the
	// overload drains). Rounded up to whole seconds by the HTTP layer.
	RetryAfter time.Duration
	// Reason distinguishes the shed tiers: "quota" (token bucket empty)
	// or "overload" (weighted fair share exceeded). Empty when admitted.
	Reason string
}

// bucket is one tenant's live admission state.
type bucket struct {
	tokens   float64   // current token balance, capped at quota burst
	last     time.Time // last refill instant
	inflight int       // requests admitted and not yet released

	// The tenant's registry counters, resolved on first use (see count).
	admitted, shed *metrics.Counter
}

// Controller admits or sheds requests per tenant.
type Controller struct {
	mu      sync.Mutex
	def     Quota
	tenants map[string]Quota
	buckets map[string]*bucket
	limit   int
	now     func() time.Time
	reg     *metrics.Registry

	inflight                 int // total admitted and not yet released
	admittedTotal, shedTotal *metrics.Counter
}

// New builds a Controller from cfg. Invalid quotas are rejected.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Default.Validate(); err != nil {
		return nil, fmt.Errorf("default quota: %w", err)
	}
	for name, q := range cfg.Tenants {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	c := &Controller{
		def:     cfg.Default,
		tenants: cloneQuotas(cfg.Tenants),
		buckets: make(map[string]*bucket),
		limit:   cfg.InflightLimit,
		now:     cfg.Now,
		reg:     cfg.Registry,
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c, nil
}

func cloneQuotas(m map[string]Quota) map[string]Quota {
	out := make(map[string]Quota, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// quotaFor resolves the effective quota for a tenant (caller holds mu).
func (c *Controller) quotaFor(tenant string) Quota {
	if q, ok := c.tenants[tenant]; ok {
		return q
	}
	return c.def
}

// weightOf normalises a quota's fairness weight.
func weightOf(q Quota) float64 {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// Admit decides whether one request from tenant may proceed. Admitted
// requests hold one unit of inflight accounting until Release. It reads
// the clock only for a tenant with a rate quota.
func (c *Controller) Admit(tenant string) Decision { return c.AdmitAt(tenant, time.Time{}) }

// AdmitAt is Admit for a caller that has read the clock already: now is
// when the request arrived. The zero time has the controller read its own
// clock, and only for a tenant with a rate quota.
func (c *Controller) AdmitAt(tenant string, now time.Time) Decision {
	c.mu.Lock()
	q := c.quotaFor(tenant)
	b := c.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: q.Burst}
		c.buckets[tenant] = b
	}

	// Tier 1: the tenant's own token bucket.
	if !q.Unlimited() {
		if now.IsZero() {
			now = c.now()
		}
		b.refill(q, now)
		if b.tokens < 1 {
			wait := time.Duration((1 - b.tokens) / q.Rate * float64(time.Second))
			c.count(b, tenant, false)
			c.mu.Unlock()
			return Decision{RetryAfter: wait, Reason: "quota"}
		}
	}

	// Tier 2: weighted fair sharing of the inflight capacity, engaged
	// only when the server is near its limit. A tenant already using at
	// least its fair share is shed so the headroom goes to the others.
	if c.limit > 0 && float64(c.inflight) >= overloadFraction*float64(c.limit) {
		totalWeight := 0.0
		for name, tb := range c.buckets {
			if tb.inflight > 0 || name == tenant {
				totalWeight += weightOf(c.quotaFor(name))
			}
		}
		share := weightOf(q) / totalWeight * float64(c.limit)
		if float64(b.inflight) >= share {
			c.count(b, tenant, false)
			c.mu.Unlock()
			return Decision{Reason: "overload"}
		}
	}

	if !q.Unlimited() {
		b.tokens--
	}
	b.inflight++
	c.inflight++
	c.count(b, tenant, true)
	c.mu.Unlock()
	return Decision{OK: true}
}

// Release returns one admitted request's inflight unit. Must be called
// exactly once per successful Admit.
func (c *Controller) Release(tenant string) {
	c.mu.Lock()
	if b := c.buckets[tenant]; b != nil && b.inflight > 0 {
		b.inflight--
		c.inflight--
	}
	c.mu.Unlock()
}

// count records the decision on the tenant's counters and the totals
// (caller holds mu).
func (c *Controller) count(b *bucket, tenant string, admitted bool) {
	if c.reg == nil {
		return
	}
	if tenant == "" {
		tenant = "_none"
	}
	if admitted {
		c.counter(&c.admittedTotal, "admission_admitted_total", "").Inc()
		c.counter(&b.admitted, "admission_admitted.", tenant).Inc()
	} else {
		c.counter(&c.shedTotal, "admission_shed_total", "").Inc()
		c.counter(&b.shed, "admission_shed.", tenant).Inc()
	}
}

// counter returns the handle kept in slot, looking prefix+tenant up in the
// registry the first time only: the name is built and the registry's mutex
// taken once per tenant, not once per request.
func (c *Controller) counter(slot **metrics.Counter, prefix, tenant string) *metrics.Counter {
	if *slot == nil {
		*slot = c.reg.Counter(prefix + tenant)
	}
	return *slot
}

// Reload swaps the quota table at runtime (the admin endpoint's
// PUT /v1/admin/quotas). Bucket levels are re-capped to the new bursts;
// inflight accounting and registry counters carry over untouched.
func (c *Controller) Reload(def Quota, tenants map[string]Quota) error {
	if err := def.Validate(); err != nil {
		return fmt.Errorf("default quota: %w", err)
	}
	for name, q := range tenants {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.def = def
	c.tenants = cloneQuotas(tenants)
	now := c.now()
	for name, b := range c.buckets {
		q := c.quotaFor(name)
		if q.Unlimited() {
			continue
		}
		// Refill under the old clock first, then cap to the new burst so
		// a tightened quota takes effect immediately.
		b.refill(q, now)
	}
	return nil
}

// refill credits the bucket with what q's rate earned since its last
// refill, capped at the burst. A bucket never refilled (a new one, or one
// kept while its tenant had no rate quota) fills to the burst. A now
// before the last refill, which concurrent requests stamped at arrival
// can present, credits nothing and keeps the later instant.
func (b *bucket) refill(q Quota, now time.Time) {
	earned := 0.0
	if now.After(b.last) {
		earned = now.Sub(b.last).Seconds() * q.Rate
		b.last = now
	}
	b.tokens = math.Min(q.Burst, b.tokens+earned)
}

// TenantState is one tenant's snapshot row.
type TenantState struct {
	Quota    Quota   `json:"quota"`
	Tokens   float64 `json:"tokens"`
	Inflight int     `json:"inflight"`
}

// Snapshot is the controller's JSON face: the active configuration plus
// per-tenant live state, with tenant names sorted for stable output.
type Snapshot struct {
	Default          Quota                  `json:"default_quota"`
	InflightLimit    int                    `json:"inflight_limit"`
	OverloadFraction float64                `json:"overload_fraction"`
	Inflight         int                    `json:"inflight"`
	TenantNames      []string               `json:"tenant_names"`
	Tenants          map[string]TenantState `json:"tenants"`
}

// State returns the current configuration and per-tenant state.
func (c *Controller) State() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Default:          c.def,
		InflightLimit:    c.limit,
		OverloadFraction: overloadFraction,
		Inflight:         c.inflight,
		Tenants:          make(map[string]TenantState),
	}
	for name, q := range c.tenants {
		s.Tenants[name] = TenantState{Quota: q}
	}
	for name, b := range c.buckets {
		ts := s.Tenants[name]
		if _, ok := c.tenants[name]; !ok {
			ts.Quota = c.def
		}
		ts.Tokens = b.tokens
		ts.Inflight = b.inflight
		s.Tenants[name] = ts
	}
	s.TenantNames = make([]string, 0, len(s.Tenants))
	for name := range s.Tenants {
		s.TenantNames = append(s.TenantNames, name)
	}
	sort.Strings(s.TenantNames)
	return s
}
