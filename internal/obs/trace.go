package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"time"
)

// A trace ID is 16 random bytes rendered as 32 hex characters — the same
// shape as a W3C trace-context trace-id, so it pastes into any downstream
// tooling. It is assigned at HTTP entry (or job submission), carried on
// context through cache lookup, singleflight wait, queue wait, execution,
// and store/journal writes, stamped into journal records, echoed in the
// X-Trace-Id response header, and attached to every span log line.

// NewTraceID returns a fresh 32-hex-char trace ID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the platforms we run on; a zero ID is
		// still a valid (if degenerate) trace ID.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s looks like a trace ID we minted or could
// have: non-empty, ≤64 chars, hex only. Used to vet client-supplied
// X-Trace-Id headers before adopting them.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
		if !ok {
			return false
		}
	}
	return true
}

type traceKey struct{}

// WithTrace returns a context carrying the given trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the trace ID carried by ctx, or "" if none.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// Span is one timed phase of a traced operation. Spans are logged (not
// collected): End emits a single structured line with the span name, trace
// ID, duration, and any attributes, at Debug level — span logs are a
// diagnostic firehose, while request/job summaries are logged at Info by
// their owners.
type Span struct {
	log   *slog.Logger
	name  string
	trace string
	start time.Time
	attrs []slog.Attr
}

// StartSpan begins a span named name for the trace carried by ctx, logging
// through log (slog.Default() if nil). The returned span is nil-safe: End
// on a zero-value span with no logger is a no-op.
func StartSpan(ctx context.Context, log *slog.Logger, name string) *Span {
	if log == nil {
		log = slog.Default()
	}
	return &Span{log: log, name: name, trace: TraceID(ctx), start: time.Now()}
}

// SetAttr attaches an attribute to be emitted at End.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, slog.Any(key, value))
}

// End logs the span and returns its duration.
func (s *Span) End() time.Duration {
	if s == nil || s.log == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		attrs := make([]slog.Attr, 0, len(s.attrs)+3)
		attrs = append(attrs,
			slog.String("span", s.name),
			slog.String("trace", s.trace),
			slog.Duration("dur", d),
		)
		attrs = append(attrs, s.attrs...)
		s.log.LogAttrs(context.Background(), slog.LevelDebug, "span", attrs...)
	}
	return d
}

// ParseLevel maps a -log-level flag value to a slog.Level. Accepts
// debug/info/warn/error (case-insensitive); anything else reports ok=false.
func ParseLevel(s string) (slog.Level, bool) {
	switch s {
	case "debug", "DEBUG":
		return slog.LevelDebug, true
	case "info", "INFO", "":
		return slog.LevelInfo, true
	case "warn", "WARN", "warning":
		return slog.LevelWarn, true
	case "error", "ERROR":
		return slog.LevelError, true
	}
	return slog.LevelInfo, false
}
