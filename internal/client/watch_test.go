package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// wireFault answers one round trip in place of (or on top of) the real
// transport.
type wireFault func(base http.RoundTripper, req *http.Request) (*http.Response, error)

func faultStatus(code int, hdr http.Header) wireFault {
	return func(_ http.RoundTripper, req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: code, Status: http.StatusText(code), Header: hdr.Clone(),
			Body: http.NoBody, Request: req}, nil
	}
}

func faultTransport(http.RoundTripper, *http.Request) (*http.Response, error) {
	return nil, errors.New("injected: connection refused")
}

// faultBody forwards the request and swaps the 200's body for one that
// yields data and then fails with err (nil: a clean EOF).
func faultBody(data []byte, err error) wireFault {
	return func(base http.RoundTripper, req *http.Request) (*http.Response, error) {
		resp, rerr := base.RoundTrip(req)
		if rerr != nil {
			return nil, rerr
		}
		resp.Body.Close()
		var body io.Reader = bytes.NewReader(data)
		if err != nil {
			body = io.MultiReader(body, errReader{err})
		}
		resp.Body, resp.ContentLength = io.NopCloser(body), -1
		return resp, nil
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// scriptedWire applies script[i] to the i-th round trip (clean past the
// end) and records the trace header every attempt carried.
type scriptedWire struct {
	base   http.RoundTripper
	script []wireFault

	mu     sync.Mutex
	traces []string
}

func (s *scriptedWire) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	seq := len(s.traces)
	s.traces = append(s.traces, req.Header.Get(telemetry.TraceHeader))
	s.mu.Unlock()
	if seq < len(s.script) && s.script[seq] != nil {
		return s.script[seq](s.base, req)
	}
	return s.base.RoundTrip(req)
}

// attempts returns how many round trips were tried, failing the test
// unless each carried its own trace.
func (s *scriptedWire) attempts(t *testing.T) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for i, h := range s.traces {
		if _, ok := telemetry.ParseTraceHeader(h); !ok {
			t.Errorf("attempt %d carried X-Waldo-Trace %q, want a valid trace", i, h)
		}
		if seen[h] {
			t.Errorf("attempt %d reused trace %q", i, h)
		}
		seen[h] = true
	}
	return len(s.traces)
}

// faultBase is the backoff base delay of every faultedClient.
const faultBase = 8 * time.Millisecond

// faultedClient returns an instrumented client on wire with a budget of
// four attempts whose backoff waits are recorded, not slept; cfg carries
// the breaker policy and clock.
func faultedClient(t *testing.T, url string, wire *scriptedWire, cfg Config) (*Client, *telemetry.Registry, *[]time.Duration) {
	t.Helper()
	sleep, waits := noSleep()
	cfg.HTTPClient = &http.Client{Transport: wire}
	cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: faultBase, MaxDelay: 2 * time.Second, Seed: 1}
	cfg.Sleep = sleep
	c, err := NewWithConfig(url, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.SetMetrics(reg)
	return c, reg, waits
}

// TestWatchUnderFaults runs one fault table over both model exchanges —
// the bounded fetch and the parked watch — and demands the same wire
// attempts, backoff schedule, retries metric and breaker transitions
// from each: the resilience contract is do's, whichever exchange rides
// it. The fetch rows are the control.
func TestWatchUnderFaults(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	ctx := context.Background()
	exchanges := []struct {
		name string
		run  func(c *Client) error
	}{
		{"fetch", func(c *Client) error { _, _, err := c.Refresh(ctx, 47, sensor.KindRTLSDR); return err }},
		{"watch", func(c *Client) error { _, _, err := c.WatchModel(ctx, 47, sensor.KindRTLSDR); return err }},
	}
	e500 := faultStatus(http.StatusInternalServerError, nil)
	faults := []struct {
		name   string
		script []wireFault
		// exactWait, when set, is the one wait expected (a Retry-After
		// floor); otherwise retry r waits in [0.5, 1.0] × faultBase·2^r.
		exactWait time.Duration
		// opens: the script trips the breaker (threshold 3) mid-budget.
		opens bool
	}{
		{name: "5xx", script: []wireFault{e500, e500}},
		{name: "429 with Retry-After", exactWait: time.Second,
			script: []wireFault{faultStatus(http.StatusTooManyRequests, http.Header{"Retry-After": {"1"}})}},
		{name: "transport error", script: []wireFault{faultTransport, faultTransport}},
		{name: "truncated body", script: []wireFault{
			faultBody([]byte("WLD"), io.ErrUnexpectedEOF), faultBody(nil, io.ErrUnexpectedEOF)}},
		{name: "undecodable body", script: []wireFault{
			faultBody([]byte("not a model descriptor"), nil), faultBody(nil, nil)}},
		{name: "open breaker", script: []wireFault{e500, e500, e500}, opens: true},
	}
	for _, ex := range exchanges {
		for _, f := range faults {
			t.Run(ex.name+"/"+f.name, func(t *testing.T) {
				now := time.Unix(1700000000, 0)
				wire := &scriptedWire{base: w.ts.Client().Transport, script: f.script}
				c, reg, waits := faultedClient(t, w.ts.URL, wire, Config{
					Breaker: BreakerPolicy{Threshold: 3, Cooldown: time.Minute},
					Now:     func() time.Time { return now },
				})
				toOpen := reg.Counter("waldo_client_breaker_transitions_total", "", "to", "open")

				err := ex.run(c)
				wantAttempts := len(f.script) + 1
				if f.opens {
					// The third failure opens the circuit; the fourth try
					// is refused before it reaches the wire.
					wantAttempts = len(f.script)
					if !errors.Is(err, ErrBreakerOpen) {
						t.Fatalf("error = %v, want ErrBreakerOpen", err)
					}
				} else if err != nil {
					t.Fatalf("exchange after transient faults: %v", err)
				}
				if got := wire.attempts(t); got != wantAttempts {
					t.Errorf("wire saw %d attempts, want %d", got, wantAttempts)
				}
				if got := reg.Counter("waldo_client_retries_total", "").Value(); got != uint64(len(f.script)) {
					t.Errorf("retries metric = %d, want %d", got, len(f.script))
				}
				if len(*waits) != len(f.script) {
					t.Fatalf("recorded waits %v, want %d of them", *waits, len(f.script))
				}
				for r, d := range *waits {
					if step := faultBase << r; f.exactWait == 0 && (d < step/2 || d > step) {
						t.Errorf("retry %d waited %v, want in [%v, %v]", r, d, step/2, step)
					} else if f.exactWait != 0 && d != f.exactWait {
						t.Errorf("retry %d waited %v, want exactly %v", r, d, f.exactWait)
					}
				}
				if !f.opens {
					if got := breakerName(c); got != "closed" || toOpen.Value() != 0 {
						t.Errorf("breaker = %q after %d opens, want closed and 0", got, toOpen.Value())
					}
					if v := c.CachedModelVersion(47, sensor.KindRTLSDR); v != "1" {
						t.Errorf("cached version = %q, want 1", v)
					}
					return
				}
				if got := breakerName(c); got != "open" || toOpen.Value() != 1 {
					t.Fatalf("breaker = %q after %d opens, want open and 1", got, toOpen.Value())
				}
				// Open: fail fast without touching the network.
				if err := ex.run(c); !errors.Is(err, ErrBreakerOpen) {
					t.Fatalf("open breaker error = %v, want ErrBreakerOpen", err)
				}
				if got := wire.attempts(t); got != wantAttempts {
					t.Errorf("open breaker let a request through (%d attempts)", got)
				}
				// Cooldown elapsed, wire clean: the probe closes the circuit.
				now = now.Add(2 * time.Minute)
				if err := ex.run(c); err != nil {
					t.Fatalf("probe after cooldown: %v", err)
				}
				if got := breakerName(c); got != "closed" {
					t.Errorf("state after successful probe = %q, want closed", got)
				}
				if got := reg.Counter("waldo_client_breaker_transitions_total", "", "to", "closed").Value(); got != 1 {
					t.Errorf("transitions to closed = %d, want 1", got)
				}
			})
		}
	}

	// A 304 is a successful park: the re-arm starts a new exchange, so six
	// failures around it fit a budget of four attempts and the backoff
	// starts over at BaseDelay.
	t.Run("watch/304 resets the budget", func(t *testing.T) {
		rearm := faultStatus(http.StatusNotModified, nil)
		wire := &scriptedWire{base: w.ts.Client().Transport,
			script: []wireFault{e500, e500, e500, rearm, e500, e500, e500}}
		c, reg, waits := faultedClient(t, w.ts.URL, wire, Config{Breaker: BreakerPolicy{Threshold: -1}})
		if err := exchanges[1].run(c); err != nil {
			t.Fatalf("watch across a re-arm: %v", err)
		}
		if got := wire.attempts(t); got != 8 {
			t.Errorf("wire saw %d attempts, want 8", got)
		}
		if got := reg.Counter("waldo_client_watch_total", "", "outcome", "rearm").Value(); got != 1 {
			t.Errorf("rearms = %d, want 1", got)
		}
		if len(*waits) != 6 {
			t.Fatalf("recorded waits %v, want 6 of them", *waits)
		}
		for i, d := range *waits {
			if step := faultBase << (i % 3); d < step/2 || d > step {
				t.Errorf("wait %d = %v, want in [%v, %v] (backoff restarts after the 304)", i, d, step/2, step)
			}
		}
	})
}

func TestWatchModelDelivers(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	reg := telemetry.New()
	w.client.SetMetrics(reg)

	// First watch with an empty cache returns the current model at once.
	m, n, err := w.client.WatchModel(context.Background(), 47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || n == 0 {
		t.Fatalf("watch returned model=%v bytes=%d", m, n)
	}
	if v := w.client.CachedModelVersion(47, sensor.KindRTLSDR); v != "1" {
		t.Fatalf("cached version = %q, want 1", v)
	}

	// A second watch parks; a server-side retrain pushes version 2.
	type result struct {
		m   *core.Model
		err error
	}
	got := make(chan result, 1)
	go func() {
		m, _, err := w.client.WatchModel(context.Background(), 47, sensor.KindRTLSDR)
		got <- result{m, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the watch park
	if err := w.client.Upload(context.Background(), core.UploadBatch{CISpanDB: 0.5,
		Readings: w.camp.Readings(47, sensor.KindRTLSDR)[:16]}); err != nil {
		t.Fatal(err)
	}
	if err := w.client.RequestRetrain(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if v := w.client.CachedModelVersion(47, sensor.KindRTLSDR); v != "2" {
			t.Errorf("cached version after push = %q, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never returned after retrain")
	}
	if got := reg.Counter("waldo_client_watch_total", "", "outcome", "delivered").Value(); got != 2 {
		t.Errorf("watch delivered = %d, want 2", got)
	}
}

// TestWatchModelRearms proves a server horizon expiry (304) re-arms the
// same WatchModelCtx call instead of erroring out.
func TestWatchModelRearms(t *testing.T) {
	env := newTestWorld(t, []rfenv.Channel{47})
	srv := dbserverWithWatchTimeout(t, env, 20*time.Millisecond)
	c, err := NewWithConfig(srv.URL, Config{HTTPClient: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.SetMetrics(reg)
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.WatchModel(ctx, 47, sensor.KindRTLSDR)
		done <- err
	}()
	// Let at least two horizons expire, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("waldo_client_watch_total", "", "outcome", "rearm").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watch never re-armed through a 304")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("canceled watch returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled watch never returned")
	}
}

// dbserverWithWatchTimeout spins a second server over the same campaign
// with a short watch horizon.
func dbserverWithWatchTimeout(t *testing.T, w *testWorld, horizon time.Duration) *httptest.Server {
	t.Helper()
	srv := dbserver.New(dbserver.Config{
		Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
		WatchTimeout: horizon,
	})
	var rs []dataset.Reading
	rs = append(rs, w.camp.Readings(47, sensor.KindRTLSDR)...)
	if err := srv.Bootstrap(rs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}
