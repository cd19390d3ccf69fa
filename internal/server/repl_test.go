package server

// End-to-end replication tests: a leader and followers wired through
// in-process HTTP servers, with a swappable leader handler (so the
// leader can be killed and restarted without changing its URL) and
// per-follower partition proxies for chaos scenarios.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pxml/internal/codec"
	"pxml/internal/fixtures"
	"pxml/internal/repl"
	"pxml/internal/store"
)

// benchFigure2 is figure2Text for any testing.TB (benchmarks included).
func benchFigure2(tb testing.TB) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := codec.EncodeText(&buf, fixtures.Figure2()); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// leaderFront is a stable URL in front of a swappable handler: swapping
// in a freshly restarted leader's Handler keeps the followers' configured
// leader URL valid across the restart.
type leaderFront struct{ h atomic.Value }

func newLeaderFront(h http.Handler) *leaderFront {
	f := &leaderFront{}
	f.h.Store(h)
	return f
}

func (f *leaderFront) swap(h http.Handler) { f.h.Store(h) }

func (f *leaderFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.h.Load().(http.Handler).ServeHTTP(w, r)
}

var leaderDown = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "leader down", http.StatusServiceUnavailable)
})

// partitionProxy stands between one follower and the shared leader
// front; flipping down simulates a network partition for that follower
// only.
type partitionProxy struct {
	front *leaderFront
	down  atomic.Bool
}

func (p *partitionProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.down.Load() {
		http.Error(w, "partitioned", http.StatusServiceUnavailable)
		return
	}
	p.front.ServeHTTP(w, r)
}

const clusterToken = "cluster-secret"

type replCluster struct {
	t         *testing.T
	leaderCfg Config
	leader    *Server
	front     *leaderFront
	frontTS   *httptest.Server

	followers   []*Server
	followerTS  []*httptest.Server
	proxies     []*partitionProxy
	proxyURL    []string
	followerDir []string
}

// newReplCluster starts a leader and n followers replicating through
// per-follower partition proxies. Poll and staleness windows are tuned
// short so tests converge and detect staleness quickly.
func newReplCluster(t *testing.T, n int, leaderOpts store.Options) *replCluster {
	t.Helper()
	c := &replCluster{t: t}
	c.leaderCfg = Config{
		StoreDir:     t.TempDir(),
		StoreOptions: leaderOpts,
		AdminToken:   clusterToken,
	}
	c.leader = MustNew(c.leaderCfg)
	c.front = newLeaderFront(c.leader.Handler())
	c.frontTS = httptest.NewServer(c.front)
	t.Cleanup(c.frontTS.Close)
	t.Cleanup(func() { c.leader.Close() })

	for i := 0; i < n; i++ {
		proxy := &partitionProxy{front: c.front}
		proxyTS := httptest.NewServer(proxy)
		t.Cleanup(proxyTS.Close)
		dir := t.TempDir()
		f := MustNew(Config{
			StoreDir:         dir,
			FollowLeader:     proxyTS.URL,
			FollowToken:      clusterToken,
			ReplMaxStaleness: 2 * time.Second,
			ReplPollWait:     100 * time.Millisecond,
		})
		fts := httptest.NewServer(f.Handler())
		t.Cleanup(fts.Close)
		t.Cleanup(func() { f.Close() })
		c.followers = append(c.followers, f)
		c.followerTS = append(c.followerTS, fts)
		c.proxies = append(c.proxies, proxy)
		c.proxyURL = append(c.proxyURL, proxyTS.URL)
		c.followerDir = append(c.followerDir, dir)
	}
	return c
}

// killLeader stops the leader process; its URL keeps answering 503.
func (c *replCluster) killLeader() {
	c.front.swap(leaderDown)
	c.leader.Close()
}

// restartLeader reopens the leader from its surviving store directory
// and swaps it back in at the same URL.
func (c *replCluster) restartLeader() {
	c.leader = MustNew(c.leaderCfg)
	c.front.swap(c.leader.Handler())
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// waitConverged blocks until every follower's position equals the
// leader's committed position.
func (c *replCluster) waitConverged() {
	c.t.Helper()
	lp := c.leader.store.Pos()
	waitFor(c.t, 15*time.Second, fmt.Sprintf("followers to reach %s", lp), func() bool {
		for _, f := range c.followers {
			st, ok := f.ReplStatus()
			if !ok || st.Diverged || st.Pos != lp {
				return false
			}
		}
		return true
	})
}

func TestReplSmoke(t *testing.T) {
	c := newReplCluster(t, 2, store.Options{})
	text := figure2Text(t)

	for _, name := range []string{"bib", "mirror", "third"} {
		resp, body := do(t, "PUT", c.frontTS.URL+"/v1/instances/"+name, text, "text/plain")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, resp.StatusCode, body)
		}
	}
	c.waitConverged()

	for i, fts := range c.followerTS {
		// Reads are served locally by the replica.
		resp, body := do(t, "GET", fts.URL+"/v1/instances/bib", "", "")
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "pxml/1") {
			t.Fatalf("follower %d GET: %d %.60s", i, resp.StatusCode, body)
		}
		resp, body = do(t, "POST", fts.URL+"/v1/instances/bib/query", "PROB OBJECT A1", "text/plain")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follower %d query: %d %s", i, resp.StatusCode, body)
		}
		resp, body = do(t, "GET", fts.URL+"/readyz", "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follower %d readyz: %d %s", i, resp.StatusCode, body)
		}
		resp, body = do(t, "GET", fts.URL+"/v1/metrics", "", "")
		if !strings.Contains(body, `"role":"follower"`) || !strings.Contains(body, `"caught_up":true`) {
			t.Fatalf("follower %d metrics replication section: %d %s", i, resp.StatusCode, body)
		}
	}
	if _, body := do(t, "GET", c.frontTS.URL+"/v1/metrics", "", ""); !strings.Contains(body, `"role":"leader"`) {
		t.Errorf("leader metrics missing replication role: %s", body)
	}

	// Writes against a follower 307-route to the leader's equivalent URL.
	req, _ := http.NewRequest("PUT", c.followerTS[0].URL+"/v1/instances/routed", strings.NewReader(text))
	resp, err := noRedirect().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower PUT status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != c.proxyURL[0]+"/v1/instances/routed" {
		t.Fatalf("follower PUT Location = %q, want %q", loc, c.proxyURL[0]+"/v1/instances/routed")
	}
	// A redirect-following client writes through the follower end to end.
	resp2, body := do(t, "PUT", c.followerTS[0].URL+"/v1/instances/routed", text, "text/plain")
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("redirected PUT: %d %s", resp2.StatusCode, body)
	}
	c.waitConverged()
	if _, ok := c.followers[1].store.Get("routed"); !ok {
		t.Fatal("write routed via follower 0 did not reach follower 1")
	}

	// Kill the leader, restart it from its directory, and keep going.
	c.killLeader()
	if resp, _ := do(t, "PUT", c.frontTS.URL+"/v1/instances/while-down", text, "text/plain"); resp.StatusCode == http.StatusCreated {
		t.Fatal("write acknowledged while leader was down")
	}
	c.restartLeader()
	if resp, body := do(t, "PUT", c.frontTS.URL+"/v1/instances/after-restart", text, "text/plain"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT after restart: %d %s", resp.StatusCode, body)
	}
	c.waitConverged()
	for i, f := range c.followers {
		if _, ok := f.store.Get("after-restart"); !ok {
			t.Errorf("follower %d missing post-restart write", i)
		}
	}
}

func TestReplStaleFollowerNotReady(t *testing.T) {
	c := newReplCluster(t, 1, store.Options{})
	text := figure2Text(t)
	if resp, body := do(t, "PUT", c.frontTS.URL+"/v1/instances/bib", text, "text/plain"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, body)
	}
	c.waitConverged()
	waitFor(t, 5*time.Second, "follower ready", func() bool {
		resp, _ := do(t, "GET", c.followerTS[0].URL+"/readyz", "", "")
		return resp.StatusCode == http.StatusOK
	})

	// Partition the follower: staleness accrues past the 2s threshold
	// and readyz flips to replica_stale, while reads keep working for
	// clients that explicitly accept them.
	c.proxies[0].down.Store(true)
	waitFor(t, 10*time.Second, "follower to report stale", func() bool {
		resp, body := do(t, "GET", c.followerTS[0].URL+"/readyz", "", "")
		return resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(body, "replica_stale")
	})
	if resp, _ := do(t, "GET", c.followerTS[0].URL+"/v1/instances/bib", "", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("stale follower refused a read: %d", resp.StatusCode)
	}

	// Heal: the puller reconnects and readiness returns.
	c.proxies[0].down.Store(false)
	waitFor(t, 10*time.Second, "follower to recover", func() bool {
		resp, _ := do(t, "GET", c.followerTS[0].URL+"/readyz", "", "")
		return resp.StatusCode == http.StatusOK
	})
	st, _ := c.followers[0].ReplStatus()
	if st.Reconnects == 0 {
		t.Error("expected at least one recorded reconnect after the partition healed")
	}
}

// TestReplFollowerServesReplacedAndDeleted checks that a follower which
// has already served a name answers for the leader's next version of it,
// and stops answering (and reporting it in /v1/metrics) once the leader
// deletes it.
func TestReplFollowerServesReplacedAndDeleted(t *testing.T) {
	c := newReplCluster(t, 1, store.Options{})
	fURL := c.followerTS[0].URL
	put := func(text string) {
		t.Helper()
		if resp, body := do(t, "PUT", c.frontTS.URL+"/v1/instances/bib", text, "text/plain"); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT: %d %s", resp.StatusCode, body)
		}
		c.waitConverged()
	}
	stats := func() (int, string) {
		t.Helper()
		resp, body := do(t, "POST", fURL+"/v1/instances/bib/query", "STATS", "text/plain")
		return resp.StatusCode, body
	}
	metricsInstances := func() map[string]any {
		t.Helper()
		_, body := do(t, "GET", fURL+"/v1/metrics", "", "")
		var m struct {
			Instances map[string]any `json:"instances"`
		}
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("metrics: %v: %s", err, body)
		}
		return m.Instances
	}

	put(figure2Text(t))
	code, first := stats()
	if code != http.StatusOK {
		t.Fatalf("follower query: %d %s", code, first)
	}
	if _, ok := metricsInstances()["bib"]; !ok {
		t.Fatal("follower metrics do not list the queried bib")
	}

	var small bytes.Buffer
	if err := codec.EncodeText(&small, smallTree()); err != nil {
		t.Fatal(err)
	}
	put(small.String())
	code, second := stats()
	if code != http.StatusOK || second == first {
		t.Fatalf("follower answer after re-PUT: %d %s (before: %s)", code, second, first)
	}

	if resp, body := do(t, "DELETE", c.frontTS.URL+"/v1/instances/bib", "", ""); resp.StatusCode/100 != 2 {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, body)
	}
	c.waitConverged()
	if code, body := stats(); code != http.StatusNotFound {
		t.Fatalf("follower query after DELETE: %d %s", code, body)
	}
	if _, ok := metricsInstances()["bib"]; ok {
		t.Fatal("follower metrics still list the deleted bib")
	}
}

func TestReplAuth(t *testing.T) {
	c := newReplCluster(t, 0, store.Options{})
	text := figure2Text(t)
	if resp, body := do(t, "PUT", c.frontTS.URL+"/v1/instances/bib", text, "text/plain"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, body)
	}

	authed := func(method, url string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(method, url, nil)
		req.Header.Set("Authorization", "Bearer "+clusterToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return resp, sb.String()
	}

	for _, url := range []string{
		c.frontTS.URL + repl.StreamPath + "?from=1:0&wait_ms=1",
		c.frontTS.URL + repl.BootstrapPath,
		c.frontTS.URL + "/v1/admin/quotas",
	} {
		resp, body := do(t, "GET", url, "", "")
		if resp.StatusCode != http.StatusUnauthorized || !strings.Contains(body, "unauthorized") {
			t.Errorf("GET %s without token: %d %s", url, resp.StatusCode, body)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("GET %s: missing WWW-Authenticate challenge", url)
		}
		if resp, _ := authed("GET", url); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with token: %d", url, resp.StatusCode)
		}
	}
	// Wrong token is rejected, and the data-plane surface stays open.
	req, _ := http.NewRequest("GET", c.frontTS.URL+"/v1/admin/quotas", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong token: %d, want 401", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", c.frontTS.URL+"/v1/instances", "", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("unauthenticated read blocked: %d", resp.StatusCode)
	}
}

func TestReplBootstrapAndDivergence(t *testing.T) {
	// A leader whose early history has been compacted away: followers
	// cannot replay from the beginning of time and must bootstrap.
	c := newReplCluster(t, 0, store.Options{SegmentSize: 512, CompactThreshold: -1})
	text := figure2Text(t)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("inst-%d", i)
		if resp, body := do(t, "PUT", c.frontTS.URL+"/v1/instances/"+name, text, "text/plain"); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, resp.StatusCode, body)
		}
	}
	if err := c.leader.store.Compact(); err != nil {
		t.Fatal(err)
	}

	// An empty follower replaying from 1:0 is off the leader's remaining
	// timeline: it must park sticky-diverged, never serve spliced history.
	blind := MustNew(Config{
		StoreDir:     t.TempDir(),
		FollowLeader: c.frontTS.URL,
		FollowToken:  clusterToken,
		ReplPollWait: 100 * time.Millisecond,
	})
	defer blind.Close()
	blindTS := httptest.NewServer(blind.Handler())
	defer blindTS.Close()
	waitFor(t, 10*time.Second, "blind follower to diverge", func() bool {
		st, _ := blind.ReplStatus()
		return st.Diverged
	})
	resp, body := do(t, "GET", blindTS.URL+"/readyz", "", "")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "diverged") {
		t.Fatalf("diverged follower readyz: %d %s", resp.StatusCode, body)
	}

	// Bootstrapping from the leader's backup lands the follower on the
	// live timeline; streaming then converges it.
	dir := t.TempDir()
	client := &repl.Client{BaseURL: c.frontTS.URL, Token: clusterToken}
	res, err := client.Bootstrap(context.Background(), dir)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if res.Pos.IsZero() {
		t.Fatal("bootstrap restored a zero position")
	}
	f := MustNew(Config{
		StoreDir:         dir,
		FollowLeader:     c.frontTS.URL,
		FollowToken:      clusterToken,
		ReplMaxStaleness: 2 * time.Second,
		ReplPollWait:     100 * time.Millisecond,
	})
	defer f.Close()
	c.followers = append(c.followers, f)
	if resp, body := do(t, "PUT", c.frontTS.URL+"/v1/instances/post-bootstrap", text, "text/plain"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT post-bootstrap: %d %s", resp.StatusCode, body)
	}
	c.waitConverged()
	for _, name := range []string{"inst-0", "inst-5", "post-bootstrap"} {
		if _, ok := f.store.Get(name); !ok {
			t.Errorf("bootstrapped follower missing %q", name)
		}
	}
}

// TestReplChaosSoak drives writes through leader kills and follower
// partitions and asserts the acceptance property: zero acknowledged
// writes lost, both followers converged to the leader's position.
func TestReplChaosSoak(t *testing.T) {
	c := newReplCluster(t, 2, store.Options{SegmentSize: 4096})
	text := figure2Text(t)
	writer := &http.Client{Timeout: 5 * time.Second}

	var acked []string
	put := func(name string) {
		req, _ := http.NewRequest("PUT", c.frontTS.URL+"/v1/instances/"+name, strings.NewReader(text))
		req.Header.Set("Content-Type", "text/plain")
		resp, err := writer.Do(req)
		if err != nil {
			return // not acknowledged
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			acked = append(acked, name)
		}
	}

	for i := 0; i < 40; i++ {
		switch i {
		case 8:
			c.proxies[0].down.Store(true)
		case 15:
			c.killLeader()
		case 18:
			c.restartLeader()
		case 24:
			c.proxies[0].down.Store(false)
			c.proxies[1].down.Store(true)
		case 30:
			c.proxies[1].down.Store(false)
		}
		put(fmt.Sprintf("chaos-%02d", i))
		time.Sleep(10 * time.Millisecond)
	}
	if len(acked) == 0 {
		t.Fatal("chaos run acknowledged no writes at all")
	}
	if len(acked) == 40 {
		t.Log("note: no writes failed during the leader outage window")
	}

	c.waitConverged()
	lp := c.leader.store.Pos()
	for i, f := range c.followers {
		st, _ := f.ReplStatus()
		if st.Pos != lp {
			t.Errorf("follower %d at %s, leader at %s", i, st.Pos, lp)
		}
		for _, name := range acked {
			if _, ok := f.store.Get(name); !ok {
				t.Errorf("follower %d lost acknowledged write %q", i, name)
			}
		}
		resp, body := do(t, "GET", c.followerTS[i].URL+"/readyz", "", "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("follower %d not ready after chaos: %d %s", i, resp.StatusCode, body)
		}
	}
	// The leader itself lost nothing across its restart.
	for _, name := range acked {
		if _, ok := c.leader.store.Get(name); !ok {
			t.Errorf("leader lost acknowledged write %q across restart", name)
		}
	}
}

// BenchmarkFollowerFanout measures read throughput fanned out across a
// leader's replicas: point queries served entirely from follower-local
// engines.
func BenchmarkFollowerFanout(b *testing.B) {
	c := newReplClusterB(b, 2)
	var rr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			url := c.followerTS[int(rr.Add(1))%len(c.followerTS)].URL
			resp, err := http.Post(url+"/v1/instances/bib/query", "text/plain", strings.NewReader("PROB OBJECT A1"))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("query status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
}

// newReplClusterB is the benchmark-flavoured cluster constructor: one
// leader, n converged followers, one "bib" instance loaded.
func newReplClusterB(b *testing.B, n int) *replCluster {
	b.Helper()
	c := &replCluster{}
	c.leaderCfg = Config{StoreDir: b.TempDir(), AdminToken: clusterToken}
	c.leader = MustNew(c.leaderCfg)
	c.front = newLeaderFront(c.leader.Handler())
	c.frontTS = httptest.NewServer(c.front)
	b.Cleanup(c.frontTS.Close)
	b.Cleanup(func() { c.leader.Close() })
	for i := 0; i < n; i++ {
		f := MustNew(Config{
			StoreDir:     b.TempDir(),
			FollowLeader: c.frontTS.URL,
			FollowToken:  clusterToken,
			ReplPollWait: 100 * time.Millisecond,
		})
		fts := httptest.NewServer(f.Handler())
		b.Cleanup(fts.Close)
		b.Cleanup(func() { f.Close() })
		c.followers = append(c.followers, f)
		c.followerTS = append(c.followerTS, fts)
	}
	// Load one instance and wait for both followers to catch up.
	reqBody := benchFigure2(b)
	req, _ := http.NewRequest("PUT", c.frontTS.URL+"/v1/instances/bib", strings.NewReader(reqBody))
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("PUT: %d", resp.StatusCode)
	}
	lp := c.leader.store.Pos()
	deadline := time.Now().Add(15 * time.Second)
	for {
		all := true
		for _, f := range c.followers {
			if st, ok := f.ReplStatus(); !ok || st.Pos != lp {
				all = false
			}
		}
		if all {
			return c
		}
		if time.Now().After(deadline) {
			b.Fatal("followers did not converge")
		}
		time.Sleep(15 * time.Millisecond)
	}
}
