package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/faultinject"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// noSleep records requested backoff waits without actually waiting, so
// retry tests run in microseconds and can assert the exact schedule.
func noSleep() (func(context.Context, time.Duration) error, *[]time.Duration) {
	var mu sync.Mutex
	var waits []time.Duration
	return func(_ context.Context, d time.Duration) error {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
		return nil
	}, &waits
}

// flakyUploads serves POST /v1/readings: the first fail requests get
// status, the rest succeed with 204. headers are added to every failure.
func flakyUploads(t *testing.T, fail int, status int, headers map[string]string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if int(n) <= fail {
			for k, v := range headers {
				w.Header().Set(k, v)
			}
			w.WriteHeader(status)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// uploadOnce sends a minimal syntactically-valid batch; the stub servers
// in these tests never validate the payload.
func uploadOnce(t *testing.T, c *Client) error {
	t.Helper()
	batch := core.UploadBatch{
		CISpanDB: 0.1,
		Readings: []dataset.Reading{{Seq: 1, Channel: 47, Sensor: sensor.KindRTLSDR}},
	}
	return c.Upload(context.Background(), batch)
}

func TestNewAvoidsDefaultClient(t *testing.T) {
	c, err := New("http://localhost:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.httpc == http.DefaultClient {
		t.Fatal("New fell back to http.DefaultClient")
	}
	if c.httpc.Timeout != 10*time.Second {
		t.Errorf("default client timeout = %v, want 10s", c.httpc.Timeout)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	ts, hits := flakyUploads(t, 2, http.StatusInternalServerError, nil)
	sleep, waits := noSleep()
	reg := telemetry.New()
	c, err := NewWithConfig(ts.URL, Config{
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: 8 * time.Millisecond, MaxDelay: 64 * time.Millisecond, Seed: 1},
		Sleep: sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(reg)
	if err := uploadOnce(t, c); err != nil {
		t.Fatalf("upload after transient failures: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if got := reg.Counter("waldo_client_retries_total", "").Value(); got != 2 {
		t.Errorf("retries metric = %d, want 2", got)
	}
	// Backoff schedule: retry r waits in [0.5, 1.0] × BaseDelay·2^r.
	if len(*waits) != 2 {
		t.Fatalf("recorded %d waits, want 2: %v", len(*waits), *waits)
	}
	for r, d := range *waits {
		step := 8 * time.Millisecond << r
		if d < step/2 || d > step {
			t.Errorf("retry %d waited %v, want in [%v, %v]", r, d, step/2, step)
		}
	}
}

func TestRetryExhaustion(t *testing.T) {
	ts, hits := flakyUploads(t, 1<<30, http.StatusInternalServerError, nil)
	sleep, _ := noSleep()
	c, err := NewWithConfig(ts.URL, Config{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Sleep: sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = uploadOnce(t, c)
	if err == nil {
		t.Fatal("persistent 500s did not surface an error")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Errorf("error = %v, want retries-exhausted", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want exactly MaxAttempts=3", got)
	}
}

func TestRetryAfterFloorsBackoff(t *testing.T) {
	tests := []struct {
		name     string
		maxDelay time.Duration
		want     time.Duration
	}{
		{"floors to hint", 2 * time.Second, time.Second},
		{"capped by MaxDelay", 400 * time.Millisecond, 400 * time.Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ts, _ := flakyUploads(t, 1, http.StatusTooManyRequests, map[string]string{"Retry-After": "1"})
			sleep, waits := noSleep()
			c, err := NewWithConfig(ts.URL, Config{
				Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: tt.maxDelay},
				Sleep: sleep,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := uploadOnce(t, c); err != nil {
				t.Fatal(err)
			}
			if len(*waits) != 1 || (*waits)[0] != tt.want {
				t.Errorf("waits = %v, want exactly [%v]", *waits, tt.want)
			}
		})
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		ts, _ := flakyUploads(t, 1<<30, http.StatusInternalServerError, nil)
		sleep, waits := noSleep()
		c, err := NewWithConfig(ts.URL, Config{
			Retry: RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, Seed: seed},
			Sleep: sleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		uploadOnce(t, c) // exhausts retries; error expected
		return *waits
	}
	a, b, other := schedule(7), schedule(7), schedule(8)
	if len(a) != 5 {
		t.Fatalf("recorded %d waits, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
}

func TestBreakerStateTransitions(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(ts.Close)

	sleep, _ := noSleep()
	reg := telemetry.New()
	c, err := NewWithConfig(ts.URL, Config{
		Retry:   RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		Breaker: BreakerPolicy{Threshold: 3, Cooldown: time.Minute},
		Sleep:   sleep,
		Now:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(reg)

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if err := uploadOnce(t, c); err == nil {
			t.Fatal("failing server returned no error")
		}
	}
	if got := c.BreakerState(); got != "open" {
		t.Fatalf("state after %d failures = %q, want open", 3, got)
	}

	// Open: fail fast without touching the network.
	before := hits.Load()
	err = uploadOnce(t, c)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker error = %v, want ErrBreakerOpen", err)
	}
	if hits.Load() != before {
		t.Error("open breaker let a request through")
	}
	if got := reg.Counter("waldo_client_breaker_rejected_total", "").Value(); got == 0 {
		t.Error("rejected counter not incremented")
	}

	// Cooldown elapsed, server still down: the half-open probe fails and
	// re-opens the circuit.
	now = now.Add(2 * time.Minute)
	if err := uploadOnce(t, c); err == nil {
		t.Fatal("probe against failing server returned no error")
	}
	if got := c.BreakerState(); got != "open" {
		t.Fatalf("state after failed probe = %q, want open", got)
	}

	// Cooldown elapsed, server recovered: the probe closes the circuit.
	now = now.Add(2 * time.Minute)
	failing.Store(false)
	if err := uploadOnce(t, c); err != nil {
		t.Fatalf("probe against recovered server: %v", err)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Fatalf("state after successful probe = %q, want closed", got)
	}
	if got := reg.Counter("waldo_client_breaker_transitions_total", "", "to", "open").Value(); got != 2 {
		t.Errorf("transitions to open = %d, want 2", got)
	}
	if got := reg.Counter("waldo_client_breaker_transitions_total", "", "to", "closed").Value(); got != 1 {
		t.Errorf("transitions to closed = %d, want 1", got)
	}
	if got := reg.Gauge("waldo_client_breaker_state", "").Value(); got != 0 {
		t.Errorf("breaker state gauge = %v, want 0 (closed)", got)
	}
}

// TestStaleServeDuringOutage: after one successful download, a total
// outage must degrade Model/Refresh to the cached descriptor instead of
// an error — the §5 offline-operation argument.
func TestStaleServeDuringOutage(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	// First request (the initial download) clean, everything after
	// dropped.
	script := make(faultinject.Script, 1, 1)
	tr := &faultinject.Transport{Plan: append(script, faultinject.Repeat(faultinject.Fault{Kind: faultinject.Drop}, 1<<20)...)}
	reg := telemetry.New()
	c, err := NewWithConfig(w.ts.URL, Config{
		HTTPClient: &http.Client{Transport: tr},
		Retry:      RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Breaker:    BreakerPolicy{Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(reg)

	fresh, size, err := c.Model(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil || size == 0 {
		t.Fatalf("initial download: model=%v size=%d err=%v", fresh, size, err)
	}
	// The wire is now dead; both lookup paths must serve the cache.
	m, _, err := c.Refresh(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatalf("Refresh during outage: %v", err)
	}
	if m != fresh {
		t.Error("Refresh served a different model than the cached one")
	}
	if m2, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil || m2 != fresh {
		t.Errorf("Model during outage: m=%v err=%v", m2, err)
	}
	if got := reg.Counter("waldo_client_stale_served_total", "").Value(); got == 0 {
		t.Error("stale-serve not counted")
	}
	// Opting out surfaces the error instead.
	strict, err := NewWithConfig(w.ts.URL, Config{
		HTTPClient:        &http.Client{Transport: &faultinject.Transport{Plan: faultinject.Schedule{DropP: 1}}},
		Retry:             RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Breaker:           BreakerPolicy{Threshold: -1},
		DisableStaleServe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := strict.Refresh(context.Background(), 47, sensor.KindRTLSDR); err == nil {
		t.Error("DisableStaleServe must surface the outage")
	}
}

// TestConcurrentRefreshUploadUnderFaults hammers one client from many
// goroutines through a fault-heavy transport. Run under -race (the
// Makefile chaos target does), it checks the resilience layer's shared
// state — breaker, cache, jitter sequence, metrics — for data races;
// functionally it checks the client still converges once the fault
// window clears.
func TestConcurrentRefreshUploadUnderFaults(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	readings := w.camp.Readings(47, sensor.KindRTLSDR)[:4]
	tr := &faultinject.Transport{Plan: faultinject.Schedule{
		Seed: 99, DropP: 0.2, ErrorP: 0.2, CorruptP: 0.1, TruncateP: 0.1,
		Window: 400,
	}}
	reg := telemetry.New()
	c, err := NewWithConfig(w.ts.URL, Config{
		HTTPClient: &http.Client{Transport: tr},
		Timeout:    2 * time.Second,
		Retry:      RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Seed: 5},
		Breaker:    BreakerPolicy{Threshold: 5, Cooldown: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(reg)

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				if (g+i)%2 == 0 {
					c.Refresh(ctx, 47, sensor.KindRTLSDR) // errors expected under faults
				} else {
					batch := UploadFromDecision(readings, core.Decision{CISpanDB: 0.3})
					c.Upload(ctx, batch)
				}
			}
		}(g)
	}
	wg.Wait()

	// The schedule has cleared (or will within a few more requests);
	// the client must converge to a working state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err := c.Refresh(context.Background(), 47, sensor.KindRTLSDR); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after the fault window cleared")
		}
	}
	if m, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil || m == nil {
		t.Fatalf("post-chaos model lookup: %v", err)
	}
}
