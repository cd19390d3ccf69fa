package admission

import (
	"sync"
	"testing"
	"time"

	"pxml/internal/metrics"
)

// fakeClock advances only when told, so bucket refill is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTokenBucketRateAndBurst(t *testing.T) {
	clk := newFakeClock()
	c := mustNew(t, Config{
		Default: Quota{Rate: 10, Burst: 3},
		Now:     clk.now,
	})
	// Burst of 3 admits three back-to-back, then sheds.
	for i := 0; i < 3; i++ {
		if d := c.Admit("a"); !d.OK {
			t.Fatalf("admit %d shed: %+v", i, d)
		}
	}
	d := c.Admit("a")
	if d.OK {
		t.Fatal("fourth instantaneous request admitted past burst")
	}
	if d.Reason != "quota" {
		t.Errorf("shed reason = %q, want quota", d.Reason)
	}
	// At 10 rps a full token is 100ms away.
	if d.RetryAfter <= 0 || d.RetryAfter > 150*time.Millisecond {
		t.Errorf("RetryAfter = %v, want ~100ms", d.RetryAfter)
	}
	// After the hinted wait the bucket has refilled exactly one token.
	clk.advance(100 * time.Millisecond)
	if d := c.Admit("a"); !d.OK {
		t.Fatalf("post-refill request shed: %+v", d)
	}
	if d := c.Admit("a"); d.OK {
		t.Fatal("second post-refill request admitted with only one token refilled")
	}
	// Refill never exceeds burst: a long idle period still caps at 3.
	clk.advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if c.Admit("a").OK {
			admitted++
		}
	}
	if admitted != 3 {
		t.Errorf("admitted %d after long idle, want burst cap 3", admitted)
	}
}

func TestTenantIsolation(t *testing.T) {
	clk := newFakeClock()
	reg := metrics.NewRegistry()
	c := mustNew(t, Config{
		Default:  Quota{Rate: 5, Burst: 2},
		Registry: reg,
		Now:      clk.now,
	})
	// Hot tenant burns its quota; cold tenant must be untouched.
	for i := 0; i < 10; i++ {
		c.Admit("hot")
	}
	if d := c.Admit("hot"); d.OK {
		t.Fatal("hot tenant still admitted after exhausting quota")
	}
	for i := 0; i < 2; i++ {
		if d := c.Admit("cold"); !d.OK {
			t.Fatalf("cold tenant shed by hot tenant's exhaustion: %+v", d)
		}
	}
	if got := reg.Counter("admission_shed.hot").Value(); got != 9 {
		t.Errorf("admission_shed.hot = %d, want 9", got)
	}
	if got := reg.Counter("admission_shed.cold").Value(); got != 0 {
		t.Errorf("admission_shed.cold = %d, want 0", got)
	}
	if got := reg.Counter("admission_admitted_total").Value(); got != 4 {
		t.Errorf("admission_admitted_total = %d, want 4", got)
	}
}

func TestPerTenantQuotaOverridesDefault(t *testing.T) {
	clk := newFakeClock()
	c := mustNew(t, Config{
		Default: Quota{Rate: 1, Burst: 1},
		Tenants: map[string]Quota{"vip": {Rate: 100, Burst: 50}},
		Now:     clk.now,
	})
	admitted := 0
	for i := 0; i < 50; i++ {
		if c.Admit("vip").OK {
			admitted++
		}
	}
	if admitted != 50 {
		t.Errorf("vip admitted %d of 50 burst", admitted)
	}
	if c.Admit("other").OK && c.Admit("other").OK {
		t.Error("default tenant exceeded burst 1")
	}
}

func TestUnlimitedQuota(t *testing.T) {
	c := mustNew(t, Config{Now: newFakeClock().now})
	for i := 0; i < 1000; i++ {
		if !c.Admit("x").OK {
			t.Fatal("unlimited quota shed a request")
		}
	}
}

func TestWeightedFairnessUnderOverload(t *testing.T) {
	clk := newFakeClock()
	c := mustNew(t, Config{
		// No rate quota: only the fairness tier is active.
		InflightLimit: 10,
		Tenants: map[string]Quota{
			"heavy": {Weight: 3},
			"light": {Weight: 1},
		},
		Now: clk.now,
	})
	// Sharing is work-conserving: while heavy is the only active tenant
	// its fair share is the whole capacity, so it fills all 10 slots.
	for i := 0; i < 10; i++ {
		if !c.Admit("heavy").OK {
			t.Fatalf("sole-tenant admit %d shed (shares must be work-conserving)", i)
		}
	}
	// At 10/10 inflight heavy has reached its (whole-capacity) share.
	if d := c.Admit("heavy"); d.OK {
		t.Fatal("heavy exceeded the inflight capacity")
	} else if d.Reason != "overload" {
		t.Errorf("shed reason = %q, want overload", d.Reason)
	}
	// The light tenant still gets in: once it is active the shares are
	// heavy 3/4·10 = 7.5 and light 1/4·10 = 2.5, and light is below its.
	if d := c.Admit("light"); !d.OK {
		t.Fatalf("light tenant shed while under its share: %+v", d)
	}
	// Heavy is now far over its 7.5 share and keeps shedding...
	if c.Admit("heavy").OK {
		t.Fatal("heavy admitted while over its weighted share")
	}
	// ...until releases bring it back under: 7 inflight < 7.5, with the
	// tier still engaged at 8 of 10.
	for i := 0; i < 3; i++ {
		c.Release("heavy")
	}
	if !c.Admit("heavy").OK {
		t.Error("heavy still shed after draining below its share")
	}
}

func TestReloadPreservesStateAndCounters(t *testing.T) {
	clk := newFakeClock()
	reg := metrics.NewRegistry()
	c := mustNew(t, Config{
		Default:  Quota{Rate: 1, Burst: 5},
		Registry: reg,
		Now:      clk.now,
	})
	for i := 0; i < 6; i++ {
		c.Admit("a")
	}
	shedBefore := reg.Counter("admission_shed.a").Value()
	if shedBefore != 1 {
		t.Fatalf("shed before reload = %d", shedBefore)
	}
	// Loosen the quota at runtime: admits resume immediately.
	if err := c.Reload(Quota{Rate: 1000, Burst: 100}, nil); err != nil {
		t.Fatal(err)
	}
	// The old bucket was empty; under the new quota it refills at the
	// new rate from the reload instant.
	clk.advance(50 * time.Millisecond) // 50 tokens at 1000/s
	if d := c.Admit("a"); !d.OK {
		t.Fatalf("admit after loosening reload shed: %+v", d)
	}
	if got := reg.Counter("admission_shed.a").Value(); got != shedBefore {
		t.Errorf("reload reset shed counter: %d != %d", got, shedBefore)
	}
	// Tightening re-caps an over-full bucket immediately.
	if err := c.Reload(Quota{Rate: 1, Burst: 2}, nil); err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i := 0; i < 10; i++ {
		if c.Admit("a").OK {
			admitted++
		}
	}
	if admitted > 2 {
		t.Errorf("admitted %d after tightening to burst 2", admitted)
	}
}

func TestReloadValidation(t *testing.T) {
	c := mustNew(t, Config{Now: newFakeClock().now})
	if err := c.Reload(Quota{Rate: 5, Burst: 0.5}, nil); err == nil {
		t.Error("reload accepted burst < 1 with positive rate")
	}
	if err := c.Reload(Quota{}, map[string]Quota{"x": {Weight: -1}}); err == nil {
		t.Error("reload accepted negative weight")
	}
	if _, err := New(Config{Default: Quota{Rate: 1, Burst: 0}}); err == nil {
		t.Error("New accepted default burst 0 with rate 1")
	}
}

func TestStateSnapshot(t *testing.T) {
	clk := newFakeClock()
	c := mustNew(t, Config{
		Default:       Quota{Rate: 10, Burst: 5},
		Tenants:       map[string]Quota{"b": {Rate: 1, Burst: 1}},
		InflightLimit: 8,
		Now:           clk.now,
	})
	c.Admit("a")
	c.Admit("b")
	s := c.State()
	if s.Inflight != 2 || s.InflightLimit != 8 {
		t.Errorf("snapshot inflight = %d/%d", s.Inflight, s.InflightLimit)
	}
	if len(s.TenantNames) != 2 || s.TenantNames[0] != "a" || s.TenantNames[1] != "b" {
		t.Errorf("TenantNames = %v", s.TenantNames)
	}
	if ts := s.Tenants["a"]; ts.Quota.Rate != 10 || ts.Inflight != 1 || ts.Tokens != 4 {
		t.Errorf("tenant a state = %+v", ts)
	}
	if ts := s.Tenants["b"]; ts.Quota.Rate != 1 || ts.Tokens != 0 {
		t.Errorf("tenant b state = %+v", ts)
	}
}

func TestConcurrentAdmitRelease(t *testing.T) {
	c := mustNew(t, Config{
		Default:       Quota{Rate: 1e9, Burst: 1e9},
		InflightLimit: 64,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := string(rune('a' + g%4))
			for i := 0; i < 500; i++ {
				if c.Admit(tenant).OK {
					c.Release(tenant)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.State(); s.Inflight != 0 {
		t.Errorf("inflight after all released = %d", s.Inflight)
	}
}
