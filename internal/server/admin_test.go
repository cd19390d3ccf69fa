package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"pxml/internal/apiv1"
	"pxml/internal/fixtures"
	"pxml/internal/repl"
	"pxml/internal/store"
)

func TestAdminBackupEndpoint(t *testing.T) {
	root := t.TempDir()
	s, ts := newTestServerWith(t, Config{StoreDir: t.TempDir(), BackupRoot: root})
	if err := s.Put("bib", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}

	// No destination → 400.
	resp, body := do(t, "POST", ts.URL+"/v1/admin/backup", "", "application/json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("backup without dir: status %d: %s", resp.StatusCode, body)
	}

	resp, body = do(t, "POST", ts.URL+"/v1/admin/backup", `{"dir": "bkup"}`, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backup: status %d: %s", resp.StatusCode, body)
	}
	var man store.Manifest
	if err := json.Unmarshal([]byte(body), &man); err != nil {
		t.Fatalf("backup response not a manifest: %v (%s)", err, body)
	}
	if man.Instances != 1 || man.Format != store.ManifestFormat {
		t.Fatalf("implausible manifest from endpoint: %+v", man)
	}
	bdir := filepath.Join(root, "bkup")
	if _, err := store.VerifyBackup(nil, bdir); err != nil {
		t.Fatalf("endpoint backup fails verification: %v", err)
	}

	// The backup restores to a working catalog.
	target := filepath.Join(t.TempDir(), "restored")
	if _, err := store.Restore(bdir, target, store.RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{StoreDir: target})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if pi, ok := r.Get("bib"); !ok || pi.NumObjects() != 11 {
		t.Fatalf("restored bib = %v", pi)
	}

	// Backing up into the same (now non-empty) destination fails cleanly.
	resp, body = do(t, "POST", ts.URL+"/v1/admin/backup?dir=bkup", "", "application/json")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("backup into non-empty dir: status %d: %s", resp.StatusCode, body)
	}
}

func TestAdminBackupConfinedToRoot(t *testing.T) {
	// Without a configured backup root the endpoint is disabled outright.
	_, closed := newTestServerWith(t, Config{StoreDir: t.TempDir()})
	resp, body := do(t, "POST", closed.URL+"/v1/admin/backup?dir=x", "", "application/json")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("backup without root: status %d: %s", resp.StatusCode, body)
	}

	_, ts := newTestServerWith(t, Config{StoreDir: t.TempDir(), BackupRoot: t.TempDir()})
	for _, dest := range []string{"/etc/pxml-pwned", "../escape", "a/../../escape", ".", "sub/.."} {
		resp, body := do(t, "POST", ts.URL+"/v1/admin/backup?dir="+url.QueryEscape(dest), "", "application/json")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("backup dir=%q: status %d (want 400): %s", dest, resp.StatusCode, body)
		}
	}

	// Nested relative names are fine — still under the root.
	resp, body = do(t, "POST", ts.URL+"/v1/admin/backup?dir="+url.QueryEscape("nightly/mon"), "", "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backup dir=nightly/mon: status %d: %s", resp.StatusCode, body)
	}
}

// TestAdminBackupWithoutStore checks what an in-memory server answers
// where the answer depends on durability: 409 on every backup, scrub,
// failover and replication route, no store or replication section and no
// store_* name in /v1/metrics, no epoch header on writes, any name
// accepted, and no recovery report.
func TestAdminBackupWithoutStore(t *testing.T) {
	s := MustNew(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, route := range []string{
		"POST /v1/admin/backup?dir=/tmp/x",
		"POST /v1/admin/scrub",
		"POST /v1/admin/promote",
		"POST /v1/admin/demote",
		"GET " + repl.StreamPath + "?from=1:0",
		"GET " + repl.BootstrapPath,
		"GET " + repl.EpochPath,
	} {
		method, path, _ := strings.Cut(route, " ")
		resp, body := do(t, method, ts.URL+path, `{"epoch":9}`, "application/json")
		if resp.StatusCode != http.StatusConflict || !strings.Contains(body, apiv1.CodeConflict) {
			t.Errorf("%s on memory-only server: status %d: %s", route, resp.StatusCode, body)
		}
	}
	for _, req := range []struct{ method, body string }{{"PUT", figure2Text(t)}, {"DELETE", ""}} {
		resp, body := do(t, req.method, ts.URL+"/v1/instances/has.dot", req.body, "text/plain")
		if resp.StatusCode >= 300 || resp.Header.Get(repl.HeaderEpoch) != "" {
			t.Errorf("%s of a dotted name: status %d, epoch header %q: %s",
				req.method, resp.StatusCode, resp.Header.Get(repl.HeaderEpoch), body)
		}
	}
	_, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if strings.Contains(body, `"store"`) || strings.Contains(body, `"replication"`) || strings.Contains(body, "store_") {
		t.Errorf("memory-only server's metrics name the store: %s", body)
	}
	if rep := s.RecoveryReport(); rep != nil {
		t.Errorf("memory-only server's recovery report = %+v", rep)
	}
}

func TestAdminScrubEndpoint(t *testing.T) {
	s, ts := newTestServerWith(t, Config{StoreDir: t.TempDir()})
	if err := s.Put("bib", fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, "POST", ts.URL+"/v1/admin/scrub", "", "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub: status %d: %s", resp.StatusCode, body)
	}
}
