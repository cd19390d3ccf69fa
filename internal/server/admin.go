package server

// Handlers of the operator surface: admission quotas, online backup and
// scrub. (Promote and demote live in failover.go.)

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"

	"pxml/internal/admission"
	"pxml/internal/apiv1"
)

// handleQuotasGet reports the live admission configuration and per-tenant
// state (token balances, inflight counts).
func (s *Server) handleQuotasGet(_ context.Context, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.adm.State())
}

// quotasRequest is the PUT /v1/admin/quotas body: a full replacement of
// the default quota and the per-tenant table.
type quotasRequest struct {
	Default admission.Quota            `json:"default_quota"`
	Tenants map[string]admission.Quota `json:"tenants"`
}

// handleQuotasPut replaces the admission quota table at runtime. Shed and
// admit counters carry over; bucket levels are re-capped to the new
// bursts so a tightened quota bites immediately.
func (s *Server) handleQuotasPut(_ context.Context, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStatementBytes))
	if err != nil {
		httpDecodeError(w, err)
		return
	}
	var req quotasRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("decode quotas: %w", err))
		return
	}
	if err := s.adm.Reload(req.Default, req.Tenants); err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, err)
		return
	}
	if s.log != nil {
		s.log.Info("admission quotas reloaded", "tenants", len(req.Tenants))
	}
	writeJSON(w, http.StatusOK, s.adm.State())
}

// handleBackup takes an online backup of the durable store into a
// subdirectory of the configured backup root named by the request. The
// client chooses only the name; the server chooses the filesystem
// location, and the endpoint is disabled entirely without Config.BackupRoot —
// an unrestricted destination would be a filesystem-write primitive for
// anyone who can reach the API. The destination must be empty or absent;
// writes keep flowing while the backup is cut (see store.Backup). The
// response is the backup's manifest — everything a later pxmlbackup
// verify/restore needs to know about what was captured.
func (s *Server) handleBackup(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, fmt.Errorf("server has no durable store to back up"))
		return
	}
	if s.backupRoot == "" {
		httpError(w, http.StatusForbidden, apiv1.CodeForbidden, fmt.Errorf("backup endpoint disabled: no backup root configured (start pxmld with -backup-dir)"))
		return
	}
	var req struct {
		Dir string `json:"dir"`
	}
	req.Dir = r.URL.Query().Get("dir")
	if r.Body != nil && req.Dir == "" {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStatementBytes))
		if err != nil {
			httpDecodeError(w, err)
			return
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("decode backup request: %w", err))
				return
			}
		}
	}
	if req.Dir == "" {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, fmt.Errorf("backup needs a destination name (?dir= or JSON {\"dir\": ...}) relative to the server's backup root"))
		return
	}
	dest, err := resolveBackupDir(s.backupRoot, req.Dir)
	if err != nil {
		httpError(w, http.StatusBadRequest, apiv1.CodeInvalidRequest, err)
		return
	}
	man, err := s.store.Backup(dest)
	if err != nil {
		httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
		return
	}
	if s.log != nil {
		s.log.Info("backup complete", "dir", dest, "instances", man.Instances, "pos", man.Pos.String())
	}
	writeJSON(w, http.StatusOK, man)
}

// resolveBackupDir maps a client-supplied backup name onto a directory
// under root, rejecting anything that could land outside it: absolute
// paths, any ".." component, or a name that resolves to the root itself.
func resolveBackupDir(root, name string) (string, error) {
	if filepath.IsAbs(name) {
		return "", fmt.Errorf("backup destination %q must be relative to the server's backup root", name)
	}
	clean := filepath.Clean(name)
	if clean == "." || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("backup destination %q escapes the server's backup root", name)
	}
	return filepath.Join(root, clean), nil
}

// handleScrub runs a synchronous full verification pass over the store's
// at-rest files. Corruption degrades the store (readyz flips) and comes
// back as a 500 so the caller knows restoration is now the job at hand.
func (s *Server) handleScrub(_ context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		httpError(w, http.StatusConflict, apiv1.CodeConflict, fmt.Errorf("server has no durable store to scrub"))
		return
	}
	if err := s.store.Scrub(); err != nil {
		httpError(w, http.StatusInternalServerError, apiv1.CodeInternal, err)
		return
	}
	h := s.store.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"scrub_passes": h.ScrubPasses,
	})
}
