package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || !ValidTraceID(a) {
		t.Fatalf("trace ID %q not 32 hex chars", a)
	}
	if a == b {
		t.Fatal("two trace IDs collided")
	}
}

func TestValidTraceID(t *testing.T) {
	for _, bad := range []string{"", "xyz", "deadbeef{", string(make([]byte, 65))} {
		if ValidTraceID(bad) {
			t.Fatalf("ValidTraceID(%q) = true, want false", bad)
		}
	}
	for _, good := range []string{"deadbeef", "0123456789abcdefABCDEF"} {
		if !ValidTraceID(good) {
			t.Fatalf("ValidTraceID(%q) = false, want true", good)
		}
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("empty context should carry no trace")
	}
	if got := TraceID(WithTrace(ctx, "abc123")); got != "abc123" {
		t.Fatalf("WithTrace round trip = %q", got)
	}
}

func TestSpanLogsAtDebug(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ctx := WithTrace(context.Background(), "feedfacefeedfacefeedfacefeedface")
	sp := StartSpan(ctx, log, "cache.lookup")
	sp.SetAttr("tier", "memory")
	if d := sp.End(); d < 0 {
		t.Fatalf("span duration %v < 0", d)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("span log is not JSON: %v\n%s", err, buf.String())
	}
	if rec["span"] != "cache.lookup" || rec["trace"] != "feedfacefeedfacefeedfacefeedface" || rec["tier"] != "memory" {
		t.Fatalf("span log missing fields: %v", rec)
	}
}

func TestSpanQuietAtInfo(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	sp := StartSpan(context.Background(), log, "quiet")
	sp.End()
	if buf.Len() != 0 {
		t.Fatalf("span logged at info level: %s", buf.String())
	}
}

func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	if sp.End() != 0 {
		t.Fatal("nil span End should return 0")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	}
	for in, want := range cases {
		got, ok := ParseLevel(in)
		if !ok || got != want {
			t.Fatalf("ParseLevel(%q) = %v,%v want %v,true", in, got, ok, want)
		}
	}
	if _, ok := ParseLevel("loud"); ok {
		t.Fatal(`ParseLevel("loud") should report !ok`)
	}
}
