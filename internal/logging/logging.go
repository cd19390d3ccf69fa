// Package logging holds the logger a daemon component falls back on when
// its caller gives none: the server, the store, replication and telemetry
// log through one *slog.Logger (DESIGN §39) and never check it for nil.
package logging

import (
	"context"
	"log/slog"
)

// OrDiscard returns l, or for nil a logger whose handler is disabled at
// every level (slog.DiscardHandler needs Go 1.24; go.mod says 1.22).
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard
	}
	return l
}

var discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
