package wlog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// lockedBuf is a goroutine-safe strings.Builder for concurrent tests.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "Error": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"loud", "debug"} {
		if _, err := ParseLevel(in); err == nil {
			t.Errorf("ParseLevel accepted %q", in)
		}
	}
}

func TestLineFormatAndLevels(t *testing.T) {
	var buf lockedBuf
	reg := telemetry.New()
	lg := New(Options{W: &buf, Min: LevelWarn, Metrics: reg}).Named("dbserver")

	lg.Info(context.Background(), "too_quiet") // below Min: dropped
	lg.Warn(context.Background(), "route_too_long",
		"channel", 47,
		"err", errors.New("no model"),
		"took", 1500*time.Millisecond,
		"ratio", 0.25,
		"ok", false,
		"note", "two words",
	)

	out := buf.String()
	if strings.Contains(out, "too_quiet") {
		t.Fatalf("info line leaked past Min=warn:\n%s", out)
	}
	line := strings.TrimSpace(out)
	for _, want := range []string{
		" warn dbserver route_too_long ",
		"channel=47",
		`err="no model"`,
		"took=1.5s",
		"ratio=0.25",
		"ok=false",
		`note="two words"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %q:\n%s", want, line)
		}
	}
	if !strings.HasSuffix(line, `note="two words"`) {
		t.Errorf("unexpected trailing content:\n%s", line)
	}
	if got := reg.Counter("waldo_log_events_total", "", "level", "warn").Value(); got != 1 {
		t.Fatalf("waldo_log_events_total{level=warn} = %d, want 1", got)
	}
	if got := reg.Counter("waldo_log_events_total", "", "level", "info").Value(); got != 0 {
		t.Fatalf("waldo_log_events_total{level=info} = %d, want 0", got)
	}
}

func TestDanglingKeyIsSurfaced(t *testing.T) {
	var buf lockedBuf
	lg := New(Options{W: &buf})
	lg.Info(context.Background(), "oops", "key_without_value")
	if !strings.Contains(buf.String(), "!BADKEY=key_without_value") {
		t.Fatalf("dangling key not surfaced:\n%s", buf.String())
	}
}

func TestTraceCorrelation(t *testing.T) {
	var buf lockedBuf
	reg := telemetry.New()
	lg := New(Options{W: &buf, Metrics: reg})

	sp := reg.StartTrace("/v1/readings", telemetry.SpanContext{})
	sc := sp.Context()
	ctx := telemetry.ContextWithSpan(context.Background(), sp)
	lg.Error(ctx, "wal_wedged", "path", "/tmp/x")
	sp.End()

	line := buf.String()
	if !strings.Contains(line, "trace="+sc.Trace.String()) ||
		!strings.Contains(line, "span="+sc.Span.String()) {
		t.Fatalf("line not trace-correlated:\n%s", line)
	}

	// No span in ctx: no trace noise appended.
	buf.b.Reset()
	lg.Error(context.Background(), "wal_wedged", "path", "/tmp/x")
	if strings.Contains(buf.String(), "trace=") {
		t.Fatalf("untraced line grew a trace field:\n%s", buf.String())
	}
}

func TestRateLimitSuppressionAndRecovery(t *testing.T) {
	var buf lockedBuf
	reg := telemetry.New()
	clock := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	lg := New(Options{W: &buf, Metrics: reg, RatePerKey: 1, Burst: 3, Now: now})

	// Burst drains after 3 lines; the rest of the flood is suppressed.
	for i := 0; i < 10; i++ {
		lg.Warn(context.Background(), "failover", "try", i)
	}
	if got := strings.Count(buf.String(), "failover"); got != 3 {
		t.Fatalf("flood emitted %d lines, want burst of 3:\n%s", got, buf.String())
	}
	if got := reg.Counter("waldo_log_suppressed_total", "").Value(); got != 7 {
		t.Fatalf("waldo_log_suppressed_total = %d, want 7", got)
	}

	// Another event key on the same component is untouched by the flood.
	lg.Warn(context.Background(), "shed", "x", 1)
	if !strings.Contains(buf.String(), "shed") {
		t.Fatal("independent event key starved by flood")
	}

	// After the bucket refills, the next line reports what was dropped.
	clock = clock.Add(5 * time.Second)
	lg.Warn(context.Background(), "failover", "try", 11)
	if !strings.Contains(buf.String(), "suppressed=7") {
		t.Fatalf("recovery line missing suppressed count:\n%s", buf.String())
	}
}

func TestNamedViewsShareCoreButNotLimits(t *testing.T) {
	var buf lockedBuf
	clock := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	lg := New(Options{W: &buf, RatePerKey: 1, Burst: 1, Now: func() time.Time { return clock }})
	a, b := lg.Named("gateway"), lg.Named("repl")
	a.Info(context.Background(), "tick")
	a.Info(context.Background(), "tick") // suppressed: gateway/tick bucket dry
	b.Info(context.Background(), "tick") // own bucket: emitted
	out := buf.String()
	if strings.Count(out, "gateway tick") != 1 || strings.Count(out, "repl tick") != 1 {
		t.Fatalf("per-component buckets broken:\n%s", out)
	}
}

func TestNilSafety(t *testing.T) {
	var lg *Logger
	lg.Info(context.Background(), "x", "k", "v")
	lg.Warn(nil, "x") //nolint:staticcheck // nil ctx must be tolerated too
	lg.Error(context.Background(), "x")
	if lg.Named("sub") != nil {
		t.Fatal("Named on nil should stay nil")
	}
}

func TestConcurrentLogging(t *testing.T) {
	var buf lockedBuf
	reg := telemetry.New()
	lg := New(Options{W: &buf, Metrics: reg, RatePerKey: -1}) // unlimited
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := lg.Named(fmt.Sprintf("c%d", w))
			for i := 0; i < 100; i++ {
				sub.Info(context.Background(), "evt", "i", i)
			}
		}(w)
	}
	wg.Wait()
	if got := strings.Count(buf.String(), "\n"); got != 800 {
		t.Fatalf("emitted %d lines, want 800 (lines torn or lost)", got)
	}
	if got := reg.Counter("waldo_log_events_total", "", "level", "info").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}
