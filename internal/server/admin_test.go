package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"pxml/internal/fixtures"
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

func TestAdminBackupWithoutStore(t *testing.T) {
	s := MustNew(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := do(t, "POST", ts.URL+"/v1/admin/backup?dir=/tmp/x", "", "application/json")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("backup on memory-only server: status %d: %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/admin/scrub", "", "application/json")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("scrub on memory-only server: status %d: %s", resp.StatusCode, body)
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
