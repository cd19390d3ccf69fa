// Package apiv1 defines the v1 HTTP API's shared wire conventions: the
// version prefix, the structured error envelope every v1 endpoint emits,
// and the client-side decoding of that envelope. Server handlers and the
// CLI clients (pxmlquery, pxmlbackup, pxmlshell) both import this
// package, so the two sides of the wire cannot drift apart.
//
// Every v1 error response has the same shape:
//
//	{"error": {"code": "quota_exceeded", "message": "...", "retry_after_ms": 1000}}
//
// The code is a stable machine-readable enum (see the Code* constants);
// the message is human-readable and free to change; retry_after_ms is
// present only on retryable 429/503 responses and mirrors the
// Retry-After header.
package apiv1

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Prefix is the v1 route prefix; apart from the two health probes, no
// route lives outside it.
const Prefix = "/v1"

// Stable error codes. Clients branch on these, never on messages.
const (
	CodeInvalidRequest   = "invalid_request"   // 400: malformed path, body, or parameters
	CodeUnauthorized     = "unauthorized"      // 401: missing or wrong bearer token
	CodeForbidden        = "forbidden"         // 403: endpoint disabled by configuration
	CodeNotFound         = "not_found"         // 404: unknown instance
	CodeConflict         = "conflict"          // 409: operation impossible in this server mode
	CodeTimelineDiverged = "timeline_diverged" // 409: replication position off this server's WAL timeline
	CodeEpochFenced      = "epoch_fenced"      // 409: node superseded by a higher leader epoch (writes fenced)
	CodeNotFollower      = "not_follower"      // 409: promotion asked of a node that is not a follower
	CodeBodyTooLarge     = "body_too_large"    // 413: request body over the configured limit
	CodeInvalidInstance  = "invalid_instance"  // 422: instance failed validation
	CodeStatementFailed  = "statement_failed"  // 422: pxql statement rejected or failed
	CodeIntractable      = "intractable"       // 422: query provably exceeds the resource budget (not retryable)
	CodeQuotaExceeded    = "quota_exceeded"    // 429: tenant token bucket empty (retryable)
	CodeOverloaded       = "overloaded"        // 429: server at capacity or over fair share (retryable)
	CodeTimeout          = "timeout"           // 503: per-request deadline expired (retryable)
	CodeDegraded         = "degraded"          // 503: durable store is read-only (retryable)
	CodeBudgetExceeded   = "budget_exceeded"   // 503: query ran past its cost budget (a cheaper variant may fit; retryable)
	CodeBreakerOpen      = "breaker_open"      // 503: circuit breaker open for this statement shape (retryable after cooldown)
	CodeInternal         = "internal"          // 500: unexpected server failure
)

// ErrorDetail is the envelope's inner object.
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// envelope is the error response wrapper.
type envelope struct {
	Error ErrorDetail `json:"error"`
}

// WriteError writes the v1 error envelope with the given status and code.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	writeEnvelope(w, status, ErrorDetail{Code: code, Message: message})
}

// WriteErrorRetry is WriteError for retryable responses: it also sets the
// Retry-After header (whole seconds, rounded up, minimum 1) and the
// envelope's retry_after_ms hint.
func WriteErrorRetry(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeEnvelope(w, status, ErrorDetail{
		Code: code, Message: message,
		RetryAfterMS: int64(retryAfter / time.Millisecond),
	})
}

func writeEnvelope(w http.ResponseWriter, status int, d ErrorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(envelope{Error: d})
}

// Error is the client-side form of a v1 error response.
type Error struct {
	Status     int           // HTTP status code
	Code       string        // machine-readable code (CodeInternal if undecodable)
	Message    string        // human-readable message
	RetryAfter time.Duration // from retry_after_ms; 0 when absent
}

// Error renders "code: message (HTTP status)".
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s (HTTP %d)", e.Code, e.Message, e.Status)
}

// Retryable reports whether the server asked the client to retry later.
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeQuotaExceeded, CodeOverloaded, CodeTimeout, CodeDegraded,
		CodeBudgetExceeded, CodeBreakerOpen:
		return true
	}
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// ErrorFromBody decodes a non-2xx response body into an *Error. Bodies
// that are not a v1 envelope (legacy servers, proxies) degrade to
// CodeInternal with the raw body as the message, so callers always get a
// useful error out.
func ErrorFromBody(status int, body []byte) *Error {
	var env envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &Error{
			Status:     status,
			Code:       env.Error.Code,
			Message:    env.Error.Message,
			RetryAfter: time.Duration(env.Error.RetryAfterMS) * time.Millisecond,
		}
	}
	msg := string(body)
	if len(msg) > 512 {
		msg = msg[:512] + "..."
	}
	return &Error{Status: status, Code: CodeInternal, Message: msg}
}
