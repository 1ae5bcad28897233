package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// The resilience layer: every database exchange runs through a retry
// loop with capped exponential backoff and deterministic jitter, behind
// a per-client circuit breaker. The paper's §5 protocol argument — one
// model download survives long offline stretches — becomes an
// implementation invariant here: while a cached descriptor exists, model
// lookups degrade to the cache instead of failing (stale-while-erroring,
// see Client.fetchOrStale).

// ErrBreakerOpen is returned (wrapped) when the circuit breaker is
// rejecting requests without trying the network. Model and Refresh mask
// it with a cached descriptor when one exists.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// RetryPolicy bounds the retry loop around one logical exchange.
// Transport errors, HTTP 5xx, and HTTP 429 are retryable; everything
// else returns immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// 0 means 4. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; 0 means 50 ms.
	// Successive retries double it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (and any server Retry-After hint);
	// 0 means 2 s.
	MaxDelay time.Duration
	// Seed drives the deterministic jitter sequence; a fixed seed
	// replays identical backoff schedules run over run.
	Seed uint64
}

func (p *RetryPolicy) defaults() {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
}

// delay returns the backoff before retry number retry (0-based), jittered
// into [0.5, 1.0]× the exponential step so synchronized clients desync
// without losing determinism (draw comes from the client's seeded
// sequence).
func (p RetryPolicy) delay(retry int, draw uint64) time.Duration {
	d := p.MaxDelay
	if retry < 30 {
		if step := p.BaseDelay << retry; step > 0 && step < d {
			d = step
		}
	}
	frac := 0.5 + 0.5*float64(draw>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// BreakerPolicy parameterizes the circuit breaker.
type BreakerPolicy struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker; 0 means 5. Negative disables the breaker.
	Threshold int
	// Cooldown is how long the breaker stays open before letting one
	// half-open probe through; 0 means 5 s.
	Cooldown time.Duration
}

func (p *BreakerPolicy) defaults() {
	if p.Threshold == 0 {
		p.Threshold = 5
	}
	if p.Cooldown == 0 {
		p.Cooldown = 5 * time.Second
	}
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

// String implements fmt.Stringer.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half_open"
	case breakerOpen:
		return "open"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// breaker is a consecutive-failure circuit breaker. Closed counts
// failures; Threshold consecutive ones open it. Open rejects instantly
// for Cooldown, then admits a single half-open probe whose outcome
// closes or re-opens the circuit.
type breaker struct {
	mu       sync.Mutex
	policy   BreakerPolicy
	now      func() time.Time
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool

	// Telemetry (nil-safe): current state, transition counts, and
	// requests rejected without touching the network.
	stateGauge *telemetry.Gauge
	toOpen     *telemetry.Counter
	toHalfOpen *telemetry.Counter
	toClosed   *telemetry.Counter
	rejected   *telemetry.Counter
}

func newBreaker(policy BreakerPolicy, now func() time.Time) *breaker {
	policy.defaults()
	if now == nil {
		now = time.Now
	}
	return &breaker{policy: policy, now: now}
}

// State returns the current state (refreshing open → half-open on
// cooldown expiry is left to allow; State is a pure read).
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *breaker) setState(s breakerState) {
	b.state = s
	b.stateGauge.Set(float64(s))
	switch s {
	case breakerOpen:
		b.toOpen.Inc()
	case breakerHalfOpen:
		b.toHalfOpen.Inc()
	case breakerClosed:
		b.toClosed.Inc()
	}
}

// allow reports whether a request may proceed. In the open state it fails
// fast with ErrBreakerOpen until the cooldown expires, then admits
// exactly one probe at a time (half-open).
func (b *breaker) allow() error {
	if b == nil || b.policy.Threshold < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.policy.Cooldown {
			b.rejected.Inc()
			return ErrBreakerOpen
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			b.rejected.Inc()
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// record feeds one request outcome back into the state machine.
func (b *breaker) record(ok bool) {
	if b == nil || b.policy.Threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		if ok {
			b.failures = 0
			b.setState(breakerClosed)
		} else {
			b.openedAt = b.now()
			b.setState(breakerOpen)
		}
	case breakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.policy.Threshold {
			b.openedAt = b.now()
			b.setState(breakerOpen)
		}
	case breakerOpen:
		// A request admitted before the transition finished; outcomes
		// in the open state only refresh the cooldown on failure.
		if !ok {
			b.openedAt = b.now()
		}
	}
}

// splitmix64 avalanches x; used for the deterministic jitter sequence
// (same construction as internal/wardrive's per-point RNG).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryAfter parses a Retry-After seconds value (the only form the Waldo
// server emits); 0 when absent or malformed.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
