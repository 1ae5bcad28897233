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

// TestLocationHintOnWire: SetLocationHint adds lat/lon to model and
// retrain requests (the gateway's routing inputs), and a plain dbserver
// ignores them — the request still succeeds.
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
}
