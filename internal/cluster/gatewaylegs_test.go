package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
)

// askCounter is a request context that counts Done and Err calls: the
// calls that arm the serving loop's hang-up watcher (adminhttp's
// per-request context starts a goroutine and a connection read on the
// first of them).
type askCounter struct {
	context.Context
	asks atomic.Int64
}

func (c *askCounter) Done() <-chan struct{} {
	c.asks.Add(1)
	return c.Context.Done()
}

func (c *askCounter) Err() error {
	c.asks.Add(1)
	return c.Context.Err()
}

// TestProxiedRequestsArmNoHangUpWatcher: a proxied request's legs are
// bounded by a deadline, not by the client's context, so nothing on the
// way asks whether the client hung up — except a parked
// /v1/model/watch, which a hang-up must end. Place queries and model
// requests for a followed store take no leg at all: they are answered
// from the gateway's replicas, whose followers poll under the gateway's
// context, and must not ask either.
func TestProxiedRequestsArmNoHangUpWatcher(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	oneOwner, twoOwners := tc.placeRoutes(t, free)
	loc := free["s0"]
	at := fmt.Sprintf("lat=%v&lon=%v", loc.Lat, loc.Lon)
	var mixed []dataset.Reading
	for _, l := range free {
		mixed = append(mixed, synthAt(8, 47, 7, l)...)
	}
	for _, tt := range []struct {
		name, method, target string
		body                 []byte
	}{
		{"frame upload", http.MethodPost, "/v1/upload/batch", frameOf(t, synthAt(20, 47, 1, loc))},
		{"JSON upload", http.MethodPost, "/v1/readings", uploadBody(t, synthAt(20, 47, 2, loc))},
		{"split upload", http.MethodPost, "/v1/upload/batch", frameOf(t, mixed)},
		{"model", http.MethodGet, "/v1/model?channel=47&sensor=1&" + at, nil},
		{"model from its replica", http.MethodGet, "/v1/model?channel=47&sensor=1&" + at, nil},
		{"export", http.MethodGet, "/v1/export?channel=47&sensor=1&" + at, nil},
		{"availability", http.MethodGet, "/v1/availability?" + at, nil},
		{"one-owner route", http.MethodPost, "/v1/route", oneOwner},
		{"two-owner route", http.MethodPost, "/v1/route", twoOwners},
		{"stats", http.MethodGet, "/v1/stats", nil},
		{"hinted retrain", http.MethodPost, "/v1/retrain?channel=47&sensor=1&" + at, nil},
		{"broadcast retrain", http.MethodPost, "/v1/retrain?channel=47&sensor=1", nil},
		{"snapshot", http.MethodPost, "/v1/admin/snapshot", nil},
	} {
		ctx := &askCounter{Context: context.Background()}
		legs := tc.legs()
		rec := serveGateway(ctx, tc.gw, tt.method, tt.target, tt.body)
		local := tt.target == "/v1/route" || strings.HasPrefix(tt.target, "/v1/availability?") || strings.HasSuffix(tt.name, "replica")
		switch {
		case local && rec.Code != http.StatusOK:
			t.Errorf("%s = %d %s", tt.name, rec.Code, rec.Body)
		case !local && tc.legs() == legs: // snapshot is 502 here: the nodes keep no data dir
			t.Errorf("%s = %d %s without a leg", tt.name, rec.Code, rec.Body)
		}
		if n := ctx.asks.Load(); n != 0 {
			t.Errorf("%s: the request context was asked Done/Err %d times, want 0", tt.name, n)
		}
	}
	// A watch parked on the replica — once its owner has stated the
	// horizon, in the follower's first sync — ends on a hang-up.
	eventually(t, "the replica's first sync", func() bool { _, ok := tc.gw.shards["s0"].Horizon(47, 1); return ok })
	hangUp, cancel := context.WithCancel(context.Background())
	ctx := &askCounter{Context: hangUp}
	time.AfterFunc(20*time.Millisecond, cancel)
	serveGateway(ctx, tc.gw, http.MethodGet, "/v1/model/watch?channel=47&sensor=1&version=99&"+at, nil)
	if ctx.asks.Load() == 0 {
		t.Error("a parked watch never asked whether its client hung up")
	}
	if n := tc.gw.metrics.Counter("waldo_dbserver_watch_total", "", "outcome", "disconnect").Value(); n != 1 {
		t.Errorf("the gateway counted %d watches ended by a hang-up, want 1: the watch was not parked on the replica", n)
	}
}

// stubShard answers every leg 204 without a network or a shard: what is
// left of a gateway request is the gateway's own work. It keeps the
// last leg body's length and reuses one response, so it allocates
// nothing itself.
type stubShard struct {
	resp    http.Response
	lastLen int64
}

func newStubShard() *stubShard {
	return &stubShard{resp: http.Response{StatusCode: http.StatusNoContent, Header: http.Header{}, Body: http.NoBody}}
}

func (s *stubShard) RoundTrip(req *http.Request) (*http.Response, error) {
	s.lastLen = 0
	if req.Body != nil {
		s.lastLen, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &s.resp, nil
}

func stubGateway(t testing.TB, maxBody int64) (*Gateway, *stubShard) {
	t.Helper()
	stub := newStubShard()
	gw, err := NewGateway(GatewayConfig{
		Shards:       []ShardSpec{{ID: "s0", URLs: []string{"http://s0.stub"}}},
		HTTPClient:   &http.Client{Transport: stub},
		MaxBodyBytes: maxBody,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw, stub
}

// TestUploadBodyEdges: reading upload bodies into pooled buffers sized
// from Content-Length changes no answer — a chunked upload (no length)
// still goes through whole, a declared length over the cap is 413, a
// body shorter than its declared length is 400.
func TestUploadBodyEdges(t *testing.T) {
	loc := cellCenter(rfenv.MetroCenter, DefaultCellDeg)
	small, big := frameOf(t, synthAt(8, 47, 1, loc)), frameOf(t, synthAt(64, 47, 1, loc))
	gw, stub := stubGateway(t, 4096) // between the two frames
	for _, tt := range []struct {
		name     string
		body     io.Reader
		declared int // Content-Length; -1 is chunked
		want     int
		wantLeg  int64
	}{
		{"chunked", io.MultiReader(bytes.NewReader(small)), -1, http.StatusNoContent, int64(len(small))},
		{"chunked, over the cap", io.MultiReader(bytes.NewReader(big)), -1, http.StatusRequestEntityTooLarge, 0},
		{"declared over the cap", bytes.NewReader(big), len(big), http.StatusRequestEntityTooLarge, 0},
		{"short body", bytes.NewReader(small[:100]), len(small), http.StatusBadRequest, 0},
	} {
		req := httptest.NewRequest(http.MethodPost, batchFramePath, tt.body)
		req.ContentLength = int64(tt.declared)
		stub.lastLen = 0
		rec := httptest.NewRecorder()
		gw.Handler().ServeHTTP(rec, req)
		if rec.Code != tt.want || stub.lastLen != tt.wantLeg {
			t.Errorf("%s = %d %q with a %d-byte leg, want %d with %d", tt.name, rec.Code, rec.Body, stub.lastLen, tt.want, tt.wantLeg)
		}
	}
}

// TestOutsizedBodyBufferNotPooled: a body buffer grown past
// maxPooledBody is dropped when its request ends, so one 8 MiB upload
// does not pin 8 MiB in the pool; a small one is pooled. The pool is
// per-P and lossy under the race detector, so each side is tried a few
// times.
func TestOutsizedBodyBufferNotPooled(t *testing.T) {
	gw, _ := stubGateway(t, 0)
	post := func(n int) {
		t.Helper()
		if rec := serveGateway(context.Background(), gw, http.MethodPost, batchFramePath, make([]byte, n)); rec.Code != http.StatusBadRequest {
			t.Fatalf("%d zero bytes as a frame = %d, want 400", n, rec.Code)
		}
	}
	for range 10 {
		post(maxPooledBody + 1)
		if bp := bodyPool.Get().(*[]byte); cap(*bp) > maxPooledBody {
			t.Fatalf("the pool handed back a %d-byte buffer", cap(*bp))
		}
	}
	for range 10 {
		post(1000)
		if bp := bodyPool.Get().(*[]byte); cap(*bp) >= 1000 {
			return
		}
	}
	t.Error("a 1000-byte body buffer was never pooled")
}
