package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// recordingProxy forwards to a backend while remembering every request
// URL it saw, so tests can assert what the client put on the wire.
type recordingProxy struct {
	mu      sync.Mutex
	seen    []*url.URL
	backend http.Handler
}

func (p *recordingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	u := *r.URL
	p.seen = append(p.seen, &u)
	p.mu.Unlock()
	p.backend.ServeHTTP(w, r)
}

func (p *recordingProxy) last(t *testing.T) *url.URL {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.seen) == 0 {
		t.Fatal("proxy saw no requests")
	}
	return p.seen[len(p.seen)-1]
}

// TestResolverSelectsBaseURL: a client with only a resolver follows it
// per request, and an empty resolver answer falls back to baseURL.
func TestResolverSelectsBaseURL(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	proxy := &recordingProxy{backend: w.server.Handler()}
	proxyTS := httptest.NewServer(proxy)
	t.Cleanup(proxyTS.Close)

	target := proxyTS.URL
	var mu sync.Mutex
	c, err := NewWithConfig(w.ts.URL, Config{
		HTTPClient: w.ts.Client(),
		Resolver: func() string {
			mu.Lock()
			defer mu.Unlock()
			return target
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	if len(proxy.seen) != 1 {
		t.Fatalf("resolver target saw %d requests, want 1", len(proxy.seen))
	}
	// Point the resolver away ("" → constructor baseURL): the next
	// fresh fetch must bypass the proxy.
	mu.Lock()
	target = ""
	mu.Unlock()
	c.Invalidate(47, sensor.KindRTLSDR)
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	if len(proxy.seen) != 1 {
		t.Errorf("fallback fetch still hit the resolver target (%d requests)", len(proxy.seen))
	}
}

// TestResolverOnlyClient: baseURL may be empty when a resolver is given.
func TestResolverOnlyClient(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	c, err := NewWithConfig("", Config{
		HTTPClient: w.ts.Client(),
		Resolver:   func() string { return w.ts.URL },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
}

// TestLocationHintOnWire: SetLocationHint adds lat/lon to model and
// retrain requests (the gateway's routing inputs), ClearLocationHint
// removes them, and a plain dbserver ignores them — the request still
// succeeds.
func TestLocationHintOnWire(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	proxy := &recordingProxy{backend: w.server.Handler()}
	proxyTS := httptest.NewServer(proxy)
	t.Cleanup(proxyTS.Close)
	c, err := NewWithConfig(proxyTS.URL, Config{HTTPClient: proxyTS.Client()})
	if err != nil {
		t.Fatal(err)
	}

	c.SetLocationHint(geo.Point{Lat: 33.749, Lon: -84.388})
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	q := proxy.last(t).Query()
	if q.Get("lat") != "33.749" || q.Get("lon") != "-84.388" {
		t.Errorf("model query = %q, want lat/lon hint", proxy.last(t).RawQuery)
	}
	if err := c.RequestRetrain(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	if q := proxy.last(t).Query(); q.Get("lat") != "33.749" {
		t.Errorf("retrain query = %q, want lat/lon hint", proxy.last(t).RawQuery)
	}

	c.ClearLocationHint()
	c.Invalidate(47, sensor.KindRTLSDR)
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	if q := proxy.last(t).Query(); q.Get("lat") != "" {
		t.Errorf("cleared hint still on the wire: %q", proxy.last(t).RawQuery)
	}
}

// TestCachedClusterVersion: the gateway's cluster-version header rides
// along into the model cache; absent (plain dbserver), it stays "".
func TestCachedClusterVersion(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	const fp = "00c0ffee00c0ffee"
	stamping := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set(clusterVersionHeader, fp)
		w.server.Handler().ServeHTTP(rw, r)
	})
	ts := httptest.NewServer(stamping)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CachedClusterVersion(47, sensor.KindRTLSDR); got != "" {
		t.Errorf("cluster version before any fetch = %q", got)
	}
	if _, _, err := c.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedClusterVersion(47, sensor.KindRTLSDR); got != fp {
		t.Errorf("cached cluster version = %q, want %q", got, fp)
	}
	// Against the plain (unstamped) dbserver the field stays empty.
	if _, _, err := w.client.Model(context.Background(), 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	if got := w.client.CachedClusterVersion(47, sensor.KindRTLSDR); got != "" {
		t.Errorf("standalone server produced cluster version %q", got)
	}
}
