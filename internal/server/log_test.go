package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// logSink is one JSON slog handler shared by every node of a test
// cluster, as pxmld's one logger is shared by its server, store,
// replication and telemetry.
type logSink struct {
	t   *testing.T
	mu  sync.Mutex
	buf bytes.Buffer
}

func (k *logSink) logger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(syncWriter{&k.mu, &k.buf}, nil))
}

// records parses every line written since mark (a byte offset) and
// fails the test on any line that is not a JSON record.
func (k *logSink) records(mark int) []map[string]any {
	k.t.Helper()
	k.mu.Lock()
	text := k.buf.String()[mark:]
	k.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			k.t.Fatalf("log line is not a JSON record: %q (%v)", line, err)
		}
		out = append(out, rec)
	}
	return out
}

func (k *logSink) mark() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.buf.Len()
}

// exactlyOne returns the record since mark whose message contains word
// and which keep (when set) accepts, failing unless there is exactly one.
func (k *logSink) exactlyOne(mark int, word string, keep func(map[string]any) bool) map[string]any {
	k.t.Helper()
	var found []map[string]any
	for _, rec := range k.records(mark) {
		if msg, _ := rec["msg"].(string); strings.Contains(msg, word) && (keep == nil || keep(rec)) {
			found = append(found, rec)
		}
	}
	if len(found) != 1 {
		k.t.Fatalf("records about %q = %d, want exactly 1: %v", word, len(found), found)
	}
	return found[0]
}

func wantComponent(t *testing.T, rec map[string]any, component string) {
	t.Helper()
	if got := rec["component"]; got != component {
		t.Errorf("record %v: component = %v, want %q", rec["msg"], got, component)
	}
}

// TestOneLoggerPerDaemon: a durable leader and its follower share one
// JSON handler. Every line in it is a record; a recovering open, a
// backup, a promotion and a fence each yield exactly one record (the
// store's, or the server's where it carries more), and the store's and
// replication's records carry their component.
func TestOneLoggerPerDaemon(t *testing.T) {
	sink := &logSink{t: t}
	log := sink.logger()
	text := figure2Text(t)

	front := newLeaderFront(leaderDown)
	frontTS := httptest.NewServer(front)
	t.Cleanup(frontTS.Close)
	leaderCfg := Config{
		StoreDir:   t.TempDir(),
		BackupRoot: t.TempDir(),
		AdminToken: clusterToken,
		Logger:     log,
	}
	leader := MustNew(leaderCfg)
	front.swap(leader.Handler())
	if resp, body := do(t, "PUT", frontTS.URL+"/v1/instances/bib", text, "text/plain"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d %s", resp.StatusCode, body)
	}

	// A recovering open: one record, with the report's counts.
	front.swap(leaderDown)
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	mark := sink.mark()
	leader = MustNew(leaderCfg)
	t.Cleanup(func() { leader.Close() })
	front.swap(leader.Handler())
	rec := sink.exactlyOne(mark, "recover", nil)
	wantComponent(t, rec, "store")
	if report, _ := rec["report"].(map[string]any); rec["dir"] != leaderCfg.StoreDir || report["recovered"] != 1.0 {
		t.Errorf("recovery record = %v, want dir %s and 1 instance recovered", rec, leaderCfg.StoreDir)
	}

	// A backup: one record.
	mark = sink.mark()
	if status, body := authReq(t, "POST", frontTS.URL+"/v1/admin/backup?dir=b1", ""); status != http.StatusOK {
		t.Fatalf("backup: %d %s", status, body)
	}
	wantComponent(t, sink.exactlyOne(mark, "backup", nil), "store")

	// A follower streams; its puller logs as repl.
	followerTS := httptest.NewServer(leaderDown)
	t.Cleanup(followerTS.Close)
	fdir := t.TempDir()
	mark = sink.mark()
	follower := MustNew(Config{
		StoreDir:     fdir,
		AdminToken:   clusterToken,
		FollowLeader: frontTS.URL,
		FollowToken:  clusterToken,
		ReplPollWait: 50 * time.Millisecond,
		AdvertiseURL: followerTS.URL,
		Logger:       log,
	})
	t.Cleanup(func() { follower.Close() })
	waitFor(t, 15*time.Second, "follower caught up", func() bool {
		st, ok := follower.ReplStatus()
		return ok && st.CaughtUp
	})
	wantComponent(t, sink.exactlyOne(mark, "recover", func(r map[string]any) bool { return r["dir"] == fdir }), "store")
	wantComponent(t, sink.exactlyOne(mark, "streaming from leader", nil), "repl")

	// A promotion: one record, the server's (drained, gap and force
	// beside the store's epoch and position).
	mark = sink.mark()
	if _, err := follower.PromoteSelf(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	rec = sink.exactlyOne(mark, "promot", nil)
	if rec["epoch"] != 2.0 || rec["drained"] != true {
		t.Errorf("promotion record = %v, want epoch 2, drained", rec)
	}

	// A fence: the new leader's demote notice fences the old one, which
	// logs it once; a second notice naming another successor at the
	// same epoch is no new transition.
	waitFor(t, 10*time.Second, "old leader fenced", func() bool {
		fenced, _, _ := leader.store.Fenced()
		return fenced
	})
	demote := fmt.Sprintf(`{"epoch":2,"leader":%q}`, "http://elsewhere.invalid")
	if status, body := authReq(t, "POST", frontTS.URL+"/v1/admin/demote", demote); status != http.StatusOK {
		t.Fatalf("second demote: %d %s", status, body)
	}
	rec = sink.exactlyOne(mark, "fence", nil)
	wantComponent(t, rec, "store")
	if rec["level"] != "WARN" || rec["epoch"] != 2.0 {
		t.Errorf("fence record = %v, want WARN at epoch 2", rec)
	}
}

// TestMetricsSampleOSGauges: GET /v1/metrics samples the OS gauges
// itself, so a server with no telemetry sink reports its resident set.
func TestMetricsSampleOSGauges(t *testing.T) {
	if _, err := os.Stat("/proc/self/statm"); err != nil {
		t.Skip("no /proc on this platform")
	}
	_, ts := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	var m struct {
		Server map[string]json.RawMessage `json:"server"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	var rss int64
	if err := json.Unmarshal(m.Server["os_rss_bytes"], &rss); err != nil || rss <= 0 {
		t.Errorf("os_rss_bytes = %s (%v), want > 0", m.Server["os_rss_bytes"], err)
	}
}
