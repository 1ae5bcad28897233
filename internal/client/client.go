// Package client implements the mobile White Space Device side of Waldo
// (paper §3.1 right half of Fig. 8, and the Android prototype of §5): the
// Local Model Parameters Updater that downloads and caches per-channel
// model descriptors, the detection loop that streams captures through the
// White Space Detector, and the Global Model Updater upload path.
//
// The client is built for flaky connectivity (the paper's operating
// assumption — a mobile WSD keeps detecting locally through offline
// stretches): every exchange has a per-attempt timeout, retries with
// capped exponential backoff and deterministic jitter, and runs behind a
// circuit breaker; model lookups serve the cached descriptor when the
// database is unreachable (stale-while-erroring). See resilience.go.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// Config parameterizes a Client's transport and resilience behavior. The
// zero value is production-ready: 10 s per-attempt timeout, 4 attempts
// with 50 ms–2 s backoff, a 5-failure/5 s-cooldown breaker, and
// stale-while-erroring model serving.
type Config struct {
	// HTTPClient performs the exchanges; nil means a fresh client with
	// Timeout as its overall budget (never http.DefaultClient, which
	// has no timeout at all).
	HTTPClient *http.Client
	// Timeout bounds each individual attempt via its context; 0 means
	// 10 s. Negative disables the per-attempt deadline.
	Timeout time.Duration
	// Retry bounds the retry loop (see RetryPolicy).
	Retry RetryPolicy
	// Breaker parameterizes the circuit breaker (see BreakerPolicy;
	// Threshold < 0 disables it).
	Breaker BreakerPolicy
	// Sleep implements backoff waits; nil means a context-aware
	// real-time sleep. Injectable for fast deterministic tests.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the breaker's clock; nil means time.Now.
	Now func() time.Time
}

// Client talks to a Waldo spectrum database. It caches model descriptors:
// one download covers a large area, which is the protocol advantage over
// per-location spectrum-database queries (§5), and the cached copy keeps
// serving when the database is unreachable.
type Client struct {
	baseURL string
	httpc   *http.Client
	// watchc serves long-poll watches: the same transport as httpc (so
	// fault injection and test hooks still apply) but no overall timeout
	// — a model watch parks until the server has news, which is the
	// opposite of a bounded exchange.
	watchc    *http.Client
	timeout   time.Duration
	retry     RetryPolicy
	brk       *breaker
	sleep     func(ctx context.Context, d time.Duration) error
	jitterSeq atomic.Uint64

	mu      sync.Mutex
	cache   map[cacheKey]cached
	hint    geo.Point
	hasHint bool

	// Telemetry handles (nil-safe no-ops until SetMetrics): model
	// download/upload latency, upload outcomes, and the resilience
	// counters (retries, stale serves, breaker).
	fetchSeconds  *telemetry.Histogram
	uploadSeconds *telemetry.Histogram
	uploadsOK     *telemetry.Counter
	uploadsFailed *telemetry.Counter
	retriesTotal  *telemetry.Counter
	staleServed   *telemetry.Counter

	// Watch telemetry (watch.go).
	watchDelivered *telemetry.Counter
	watchRearms    *telemetry.Counter
}

type cacheKey struct {
	ch   rfenv.Channel
	kind sensor.Kind
}

type cached struct {
	model   *core.Model
	version string
	etag    string
	bytes   int
}

// NewWithConfig returns a client for the database at baseURL (e.g.
// "http://localhost:8473"); zero fields of cfg take their defaults.
func NewWithConfig(baseURL string, cfg Config) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("client: empty base URL")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: cfg.Timeout}
	}
	cfg.Retry.defaults()
	if cfg.Sleep == nil {
		cfg.Sleep = sleepCtx
	}
	return &Client{
		baseURL: baseURL,
		httpc:   cfg.HTTPClient,
		watchc:  &http.Client{Transport: cfg.HTTPClient.Transport},
		timeout: cfg.Timeout,
		retry:   cfg.Retry,
		brk:     newBreaker(cfg.Breaker, cfg.Now),
		sleep:   cfg.Sleep,
		cache:   make(map[cacheKey]cached),
	}, nil
}

// SetMetrics wires the client's telemetry into reg: download and upload
// latency histograms, upload outcomes, and the resilience metrics
// (retries, stale serves, breaker state and transitions). Call before issuing requests; a nil registry leaves the
// client uninstrumented.
func (c *Client) SetMetrics(reg *telemetry.Registry) {
	c.fetchSeconds = reg.Histogram("waldo_client_model_fetch_seconds",
		"Model descriptor download latency (cache misses only).", nil)
	c.uploadSeconds = reg.Histogram("waldo_client_upload_seconds",
		"Reading upload round-trip latency.", nil)
	c.uploadsOK = reg.Counter("waldo_client_uploads_total",
		"Upload attempts by outcome.", "outcome", "accepted")
	c.uploadsFailed = reg.Counter("waldo_client_uploads_total",
		"Upload attempts by outcome.", "outcome", "failed")
	c.retriesTotal = reg.Counter("waldo_client_retries_total",
		"Request attempts beyond the first (backoff retries).")
	c.staleServed = reg.Counter("waldo_client_stale_served_total",
		"Model lookups served from the cache because the database was unreachable.")
	const watchHelp = "Model watch long-poll resolutions by outcome."
	c.watchDelivered = reg.Counter("waldo_client_watch_total", watchHelp, "outcome", "delivered")
	c.watchRearms = reg.Counter("waldo_client_watch_total", watchHelp, "outcome", "rearm")
	const transHelp = "Circuit breaker state transitions by destination state."
	c.brk.stateGauge = reg.Gauge("waldo_client_breaker_state",
		"Circuit breaker state (0 closed, 1 half-open, 2 open).")
	c.brk.toOpen = reg.Counter("waldo_client_breaker_transitions_total", transHelp, "to", "open")
	c.brk.toHalfOpen = reg.Counter("waldo_client_breaker_transitions_total", transHelp, "to", "half_open")
	c.brk.toClosed = reg.Counter("waldo_client_breaker_transitions_total", transHelp, "to", "closed")
	c.brk.rejected = reg.Counter("waldo_client_breaker_rejected_total",
		"Requests failed fast by the open circuit breaker.")
}

// retryableError marks a handler failure (unreadable or undecodable
// response body) that should re-enter the retry loop.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// do runs one logical exchange with the circuit breaker and retries with
// capped exponential backoff and deterministic jitter; it is the only
// place that checks the breaker, sleeps a backoff, honours Retry-After,
// spends the retry budget or stamps a trace header. httpc performs the
// attempts, each under its own timeout (≤ 0: none — a parked watch).
// build must mint a fresh request per attempt; handle processes any
// response that is not a retryable status (5xx or 429) and may return a
// *retryableError to force another attempt; any other error it returns
// is returned as is. do owns closing the body.
func (c *Client) do(ctx context.Context, op string, httpc *http.Client, timeout time.Duration,
	build func(ctx context.Context) (*http.Request, error),
	handle func(resp *http.Response) error) error {
	var lastErr error
	var raFloor time.Duration // server Retry-After hint for the next wait
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retriesTotal.Inc()
			draw := splitmix64(c.retry.Seed ^ splitmix64(c.jitterSeq.Add(1)))
			d := c.retry.delay(attempt-1, draw)
			if raFloor > d {
				d = min(raFloor, c.retry.MaxDelay)
			}
			raFloor = 0
			if err := c.sleep(ctx, d); err != nil {
				return fmt.Errorf("client: %s: %w", op, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("client: %s: %w", op, err)
		}
		if err := c.brk.allow(); err != nil {
			// Fail fast: the breaker already knows the database is
			// down; burning the rest of the retry budget would only
			// add latency.
			return fmt.Errorf("client: %s: %w", op, err)
		}
		err := c.attempt(ctx, op, httpc, timeout, build, handle, &raFloor)
		if err == nil {
			return nil
		}
		var re *retryableError
		if !errors.As(err, &re) {
			return err
		}
		lastErr = re.err
	}
	return fmt.Errorf("client: %s: retries exhausted: %w", op, lastErr)
}

// attempt performs one try of the exchange. It returns nil on success, a
// *retryableError for transport failures, retryable statuses, and
// handler-flagged retryables, and a terminal error otherwise.
func (c *Client) attempt(ctx context.Context, op string, httpc *http.Client, timeout time.Duration,
	build func(ctx context.Context) (*http.Request, error),
	handle func(resp *http.Response) error, raFloor *time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := build(ctx)
	if err != nil {
		return fmt.Errorf("client: %s: %w", op, err)
	}
	// Mint a fresh trace per attempt unless the caller supplied one: the
	// response's X-Waldo-Trace then names exactly the trace this try left
	// in the server's flight recorder, retries included.
	if req.Header.Get(telemetry.TraceHeader) == "" {
		req.Header.Set(telemetry.TraceHeader, telemetry.NewSpanContext().Header())
	}
	resp, err := httpc.Do(req)
	if err != nil {
		c.brk.record(false)
		return &retryableError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		*raFloor = retryAfter(resp)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		c.brk.record(false)
		return &retryableError{err: fmt.Errorf("client: %s: %s", op, resp.Status)}
	}
	c.brk.record(true)
	return handle(resp)
}

// rejected renders a non-retryable status the server answered an
// exchange with, quoting the start of its body.
func rejected(what string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("client: %s: %s: %s", what, resp.Status, bytes.TrimSpace(msg))
}

// SetLocationHint attaches the device's position to subsequent model,
// refresh, and retrain requests as lat/lon query parameters. Against a
// single dbserver the extra parameters are ignored; against a cluster
// gateway they select the geo-cell — and therefore the shard — the
// request routes to, which is what makes one download cover the device's
// own neighborhood (the paper's locality argument, applied to routing).
func (c *Client) SetLocationHint(p geo.Point) {
	c.mu.Lock()
	c.hint, c.hasHint = p, true
	c.mu.Unlock()
}

// hintQuery renders the routing hint as query parameters, or "".
func (c *Client) hintQuery() string {
	c.mu.Lock()
	p, ok := c.hint, c.hasHint
	c.mu.Unlock()
	if !ok {
		return ""
	}
	return fmt.Sprintf("&lat=%s&lon=%s",
		strconv.FormatFloat(p.Lat, 'f', -1, 64), strconv.FormatFloat(p.Lon, 'f', -1, 64))
}

// Model returns the detection model for a channel/sensor, downloading
// it on first use. The returned byte count is the descriptor size (0 on
// cache hits), feeding the §5 download-overhead analysis. If the download
// fails but a cached descriptor exists (e.g. invalidation raced a network
// partition), the cached model is served instead of an error.
func (c *Client) Model(ctx context.Context, ch rfenv.Channel, kind sensor.Kind) (*core.Model, int, error) {
	key := cacheKey{ch, kind}
	c.mu.Lock()
	if hit, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return hit.model, 0, nil
	}
	c.mu.Unlock()
	return c.fetchOrStale(ctx, key, "")
}

// Refresh revalidates the cached model for a channel/sensor against
// the database using If-None-Match. An unchanged model costs the server
// no encode and the wire no body (304); a changed one is downloaded and
// replaces the cache entry. With nothing cached it behaves like Model.
// The byte count is the transferred descriptor size (0 when the cached
// copy was still current). While a cached descriptor exists, an
// unreachable database degrades to the cached copy instead of an error
// (stale-while-erroring): one download survives long offline stretches,
// the paper's §5 protocol argument.
func (c *Client) Refresh(ctx context.Context, ch rfenv.Channel, kind sensor.Kind) (*core.Model, int, error) {
	key := cacheKey{ch, kind}
	c.mu.Lock()
	etag := c.cache[key].etag
	c.mu.Unlock()
	return c.fetchOrStale(ctx, key, etag)
}

// fetchOrStale is fetch, degrading to the cached model (counted in
// telemetry) when the exchange fails.
func (c *Client) fetchOrStale(ctx context.Context, key cacheKey, etag string) (*core.Model, int, error) {
	model, n, err := c.fetch(ctx, key, etag)
	if err == nil {
		return model, n, err
	}
	c.mu.Lock()
	hit, ok := c.cache[key]
	c.mu.Unlock()
	if !ok {
		return nil, 0, err
	}
	c.staleServed.Inc()
	return hit.model, 0, nil
}

// fetch downloads (or, with a non-empty etag, revalidates) one model
// descriptor and installs it in the cache.
func (c *Client) fetch(ctx context.Context, key cacheKey, etag string) (*core.Model, int, error) {
	var (
		model    *core.Model
		n        int
		needFull bool
	)
	err := c.do(ctx, "fetch model", c.httpc, c.timeout,
		func(actx context.Context) (*http.Request, error) {
			url := fmt.Sprintf("%s/v1/model?channel=%d&sensor=%d%s",
				c.baseURL, int(key.ch), int(key.kind), c.hintQuery())
			req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			if etag != "" {
				req.Header.Set("If-None-Match", etag)
			}
			return req, nil
		},
		func(resp *http.Response) (err error) {
			if etag != "" && resp.StatusCode == http.StatusNotModified {
				c.mu.Lock()
				hit, ok := c.cache[key]
				c.mu.Unlock()
				if ok {
					model, n = hit.model, 0
					return nil
				}
				// Invalidated while revalidating; fall back to a full
				// fetch after the loop.
				needFull = true
				return nil
			}
			if resp.StatusCode != http.StatusOK {
				return rejected("fetch model", resp)
			}
			model, n, err = c.install(key, resp)
			return err
		})
	if err != nil {
		return nil, 0, err
	}
	if needFull {
		return c.fetch(ctx, key, "")
	}
	return model, n, nil
}

// install decodes a 200 model response and makes it key's cache entry;
// fetch and WatchModel both end here. An unreadable or undecodable body
// (a flaky or tampering path) is a wire problem, not a server decision,
// so it re-enters the retry loop like a transport error.
func (c *Client) install(key cacheKey, resp *http.Response) (*core.Model, int, error) {
	start := time.Now()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, 0, &retryableError{err: fmt.Errorf("client: read model: %w", err)}
	}
	c.fetchSeconds.Observe(time.Since(start).Seconds())
	m, err := core.DecodeModel(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, &retryableError{err: fmt.Errorf("client: decode model: %w", err)}
	}
	c.mu.Lock()
	c.cache[key] = cached{
		model:   m,
		version: resp.Header.Get("X-Waldo-Model-Version"),
		etag:    resp.Header.Get("ETag"),
		bytes:   len(raw),
	}
	c.mu.Unlock()
	return m, len(raw), nil
}

// CachedModelVersion returns the server-assigned version of the cached
// descriptor for a channel/sensor, or "" when nothing is cached. Because
// stale-serving never touches the cache, a caller that must distinguish
// a fresh download from a stale fallback (e.g. the e2e harness after a
// retrain) can compare this against the server's announced version.
func (c *Client) CachedModelVersion(ch rfenv.Channel, kind sensor.Kind) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache[cacheKey{ch, kind}].version
}

// Upload submits a reading batch to the Global Model Updater as one
// core batch frame (POST /v1/upload/batch), the CI span in the
// X-Waldo-CI-Span header. Transient failures (transport errors, 5xx, and
// load-shedding 429s — the server's Retry-After hint floors the backoff)
// are retried. Because the server applies a batch atomically and
// rejections leave no state, a retry is safe; persistent failures
// surface as an error after the retry budget.
func (c *Client) Upload(ctx context.Context, batch core.UploadBatch) error {
	if len(batch.Readings) == 0 {
		return fmt.Errorf("client: empty upload")
	}
	frame, err := core.EncodeBatchFrame(batch.Readings)
	if err != nil {
		return fmt.Errorf("client: encode batch: %w", err)
	}
	span := strconv.FormatFloat(batch.CISpanDB, 'g', -1, 64)
	start := time.Now()
	err = c.do(ctx, "upload", c.httpc, c.timeout,
		func(actx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(actx, http.MethodPost, c.baseURL+"/v1/upload/batch", bytes.NewReader(frame))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			req.Header.Set(dbserver.CISpanHeader, span)
			return req, nil
		},
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusNoContent {
				return rejected("upload rejected", resp)
			}
			return nil
		})
	if err != nil {
		c.uploadsFailed.Inc()
		return err
	}
	c.uploadSeconds.Observe(time.Since(start).Seconds())
	c.uploadsOK.Inc()
	return nil
}

// RequestRetrain asks the database to rebuild one model, retrying
// transient failures.
func (c *Client) RequestRetrain(ctx context.Context, ch rfenv.Channel, kind sensor.Kind) error {
	return c.do(ctx, "retrain", c.httpc, c.timeout,
		func(actx context.Context) (*http.Request, error) {
			url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d%s",
				c.baseURL, int(ch), int(kind), c.hintQuery())
			return http.NewRequestWithContext(actx, http.MethodPost, url, nil)
		},
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				return rejected("retrain failed", resp)
			}
			return nil
		})
}
