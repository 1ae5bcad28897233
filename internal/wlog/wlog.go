// Package wlog is Waldo's structured logging: leveled key-value events
// with per-event rate limiting and automatic trace-ID correlation.
//
// The paper's operator is a locality without an SRE team (§6's "local
// and low-cost" pitch), so logs must be useful raw: one line per event,
// `key=value` pairs greppable without a pipeline, the trace ID of the
// request that hit the problem attached automatically so the line links
// straight to GET /debug/traces. Subsystems that used to fail silently
// into counters (WAL wedges, replication fencing, gateway failover)
// log through this package.
//
// Design constraints, mirrored from internal/telemetry:
//
//   - Stdlib only.
//   - Nil-safe: every method on a nil *Logger is a no-op, so
//     instrumented code never branches on "is logging enabled".
//   - Flood-proof: each (component, event) key has a token-bucket rate
//     limit; suppressed lines are counted and reported on the next
//     emitted line (`suppressed=N`) and in waldo_log_suppressed_total,
//     so an error loop can't turn the disk into the outage.
package wlog

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// Level orders event severity.
type Level int8

const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

// String renders the level as its canonical lowercase name.
func (l Level) String() string {
	switch l {
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "level(" + strconv.Itoa(int(l)) + ")"
}

// ParseLevel parses a level name ("info", "warn", "error").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("wlog: unknown level %q", s)
}

// Options parameterizes New.
type Options struct {
	// W receives log lines; nil means io.Discard.
	W io.Writer
	// Min is the lowest level emitted. The zero value is LevelInfo
	// (emit everything); binaries set this from their -log-level flag.
	Min Level
	// Metrics, when set, receives waldo_log_events_total (by level) and
	// waldo_log_suppressed_total.
	Metrics *telemetry.Registry
	// RatePerKey is the sustained events/second allowed per
	// (component, event) key; default 5. Negative disables limiting.
	RatePerKey float64
	// Burst is the token-bucket depth per key; default 10.
	Burst float64
	// Now is the clock; nil means time.Now. Injectable for tests.
	Now func() time.Time
}

// core is the shared state behind every Named view of one logger.
type core struct {
	mu      sync.Mutex
	w       io.Writer
	buckets map[string]*bucket

	min   Level
	rate  float64
	burst float64
	now   func() time.Time

	events     [3]*telemetry.Counter
	suppressed *telemetry.Counter
}

// bucket is one (component, event) key's token bucket plus its count of
// suppressed lines since the last emission.
type bucket struct {
	tokens     float64
	last       time.Time
	suppressed uint64
}

// Logger emits structured events for one named component. Create the
// root with New, derive per-subsystem views with Named. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Logger struct {
	c    *core
	name string
}

// New builds a root logger.
func New(opts Options) *Logger {
	if opts.W == nil {
		opts.W = io.Discard
	}
	if opts.RatePerKey == 0 {
		opts.RatePerKey = 5
	}
	if opts.Burst <= 0 {
		opts.Burst = 10
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &core{
		w:       opts.W,
		buckets: make(map[string]*bucket),
		min:     opts.Min,
		rate:    opts.RatePerKey,
		burst:   opts.Burst,
		now:     opts.Now,
	}
	const help = "Log lines emitted, by level."
	for lv := LevelInfo; lv <= LevelError; lv++ {
		c.events[lv] = opts.Metrics.Counter("waldo_log_events_total", help, "level", lv.String())
	}
	c.suppressed = opts.Metrics.Counter("waldo_log_suppressed_total",
		"Log lines dropped by per-event rate limiting.")
	return &Logger{c: c, name: "waldo"}
}

// Named returns a view of the same logger labeled with a component name
// ("dbserver", "gateway", "wal", "repl"). Rate limits are keyed by
// (component, event), so a noisy subsystem can't starve another's
// events.
func (l *Logger) Named(component string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{c: l.c, name: component}
}

// Info emits an info-level event.
func (l *Logger) Info(ctx context.Context, event string, kv ...any) {
	l.log(ctx, LevelInfo, event, kv)
}

// Warn emits a warn-level event.
func (l *Logger) Warn(ctx context.Context, event string, kv ...any) {
	l.log(ctx, LevelWarn, event, kv)
}

// Error emits an error-level event.
func (l *Logger) Error(ctx context.Context, event string, kv ...any) {
	l.log(ctx, LevelError, event, kv)
}

func (l *Logger) log(ctx context.Context, lv Level, event string, kv []any) {
	if l == nil || lv < l.c.min {
		return
	}
	c := l.c
	now := c.now()

	// Rate limit before formatting: a suppressed line costs one map
	// lookup and a few float ops.
	key := l.name + "\x00" + event
	c.mu.Lock()
	b := c.buckets[key]
	if b == nil {
		b = &bucket{tokens: c.burst, last: now}
		c.buckets[key] = b
	}
	if c.rate > 0 {
		b.tokens += now.Sub(b.last).Seconds() * c.rate
		if b.tokens > c.burst {
			b.tokens = c.burst
		}
	}
	b.last = now
	if c.rate > 0 && b.tokens < 1 {
		b.suppressed++
		c.mu.Unlock()
		c.suppressed.Inc()
		return
	}
	b.tokens--
	wasSuppressed := b.suppressed
	b.suppressed = 0
	c.mu.Unlock()

	var sb strings.Builder
	sb.Grow(128)
	sb.WriteString(now.UTC().Format("2006-01-02T15:04:05.000Z"))
	sb.WriteByte(' ')
	sb.WriteString(lv.String())
	sb.WriteByte(' ')
	sb.WriteString(l.name)
	sb.WriteByte(' ')
	sb.WriteString(event)
	for i := 0; i+1 < len(kv); i += 2 {
		sb.WriteByte(' ')
		writeKey(&sb, kv[i])
		sb.WriteByte('=')
		writeValue(&sb, kv[i+1])
	}
	if len(kv)%2 != 0 {
		// A dangling key is a programming error; surface it rather than
		// silently dropping the value-less key.
		sb.WriteString(" !BADKEY=")
		writeValue(&sb, kv[len(kv)-1])
	}
	if sp := telemetry.SpanFromContext(ctx); sp != nil {
		if sc := sp.Context(); sc.Valid() {
			sb.WriteString(" trace=")
			sb.WriteString(sc.Trace.String())
			sb.WriteString(" span=")
			sb.WriteString(sc.Span.String())
		}
	}
	if wasSuppressed > 0 {
		sb.WriteString(" suppressed=")
		sb.WriteString(strconv.FormatUint(wasSuppressed, 10))
	}
	sb.WriteByte('\n')

	c.mu.Lock()
	_, _ = io.WriteString(c.w, sb.String())
	c.mu.Unlock()
	c.events[lv].Inc()
}

func writeKey(sb *strings.Builder, k any) {
	s, ok := k.(string)
	if !ok {
		s = fmt.Sprint(k)
	}
	sb.WriteString(s)
}

// writeValue renders one value: bare for clean scalars, strconv-quoted
// when quoting is needed to keep the line one-token-per-pair greppable.
func writeValue(sb *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		writeString(sb, x)
	case error:
		if x == nil {
			sb.WriteString("<nil>")
			return
		}
		writeString(sb, x.Error())
	case time.Duration:
		sb.WriteString(x.String())
	case int:
		sb.WriteString(strconv.Itoa(x))
	case int64:
		sb.WriteString(strconv.FormatInt(x, 10))
	case uint64:
		sb.WriteString(strconv.FormatUint(x, 10))
	case float64:
		sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case bool:
		sb.WriteString(strconv.FormatBool(x))
	case fmt.Stringer:
		writeString(sb, x.String())
	default:
		writeString(sb, fmt.Sprint(x))
	}
}

func writeString(sb *strings.Builder, s string) {
	if needsQuote(s) {
		sb.WriteString(strconv.Quote(s))
		return
	}
	sb.WriteString(s)
}

func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '"' || c == '=' || c >= 0x7f {
			return true
		}
	}
	return false
}
