package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
)

// watchedShard serves a handler on loopback and watches its connections:
// how many were accepted, how many have closed, and whether request
// bytes ever arrived on one while it was still handling a request —
// which only two exchanges sharing the connection can cause. A grid
// follower's polls park (parkGrid) and are counted in parked; their
// connections are not counted.
type watchedShard struct {
	*httptest.Server
	accepted, closed, overlaps, parked atomic.Int64
}

type watchedConn struct {
	net.Conn
	ws   *watchedShard
	busy atomic.Bool // a handler holds a fully-read request
	leg  atomic.Bool // counted: it carried a request other than a grid poll
}

func (c *watchedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.busy.Load() {
		c.ws.overlaps.Add(1)
	}
	return n, err
}

type watchedListener struct {
	net.Listener
	ws *watchedShard
}

func (l watchedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &watchedConn{Conn: c, ws: l.ws}, nil
}

type watchedConnKey struct{}

func newWatchedShard(t testing.TB, h http.Handler) *watchedShard {
	t.Helper()
	ws := &watchedShard{}
	ws.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == gridPath {
			ws.parked.Add(1)
		}
		if parkGrid(r) {
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		c := r.Context().Value(watchedConnKey{}).(*watchedConn)
		if c.leg.CompareAndSwap(false, true) {
			ws.accepted.Add(1)
		}
		c.busy.Store(true)
		defer c.busy.Store(false)
		time.Sleep(50 * time.Microsecond) // time for an exchange wrongly sharing this conn to get its bytes in
		h.ServeHTTP(w, r)
	}))
	ws.Listener = watchedListener{ws.Listener, ws}
	ws.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		return context.WithValue(ctx, watchedConnKey{}, c)
	}
	ws.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateClosed && c.(*watchedConn).leg.Load() {
			ws.closed.Add(1)
		}
	}
	ws.Start()
	t.Cleanup(ws.Close)
	return ws
}

// TestWatchedShardSeesSharedConn checks the instrument itself: a second
// request written while the first is still being handled is counted.
func TestWatchedShardSeesSharedConn(t *testing.T) {
	entered, release := make(chan struct{}, 2), make(chan struct{})
	ws := newWatchedShard(t, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		entered <- struct{}{}
		<-release
	}))
	c, err := net.Dial("tcp", ws.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const get = "GET / HTTP/1.1\r\nHost: shard\r\n\r\n"
	io.WriteString(c, get) //nolint:errcheck
	<-entered
	io.WriteString(c, get) //nolint:errcheck
	eventually(t, "the second request's bytes counted as an overlap", func() bool { return ws.overlaps.Load() > 0 })
	close(release)
}

// watchedCluster is a gateway over real nodes behind watched shards,
// each shard's grid follower parked.
func watchedCluster(t testing.TB, ids ...string) (*testCluster, map[string]*watchedShard) {
	t.Helper()
	tc := &testCluster{nodes: map[string]*Node{}}
	shards := map[string]*watchedShard{}
	var specs []ShardSpec
	for _, id := range ids {
		n, _ := newTestNode(t, id, "")
		tc.nodes[id], shards[id] = n, newWatchedShard(t, n.Handler())
		specs = append(specs, ShardSpec{ID: id, URLs: []string{shards[id].URL}})
	}
	gw, err := NewGateway(GatewayConfig{Shards: specs, Ring: RingConfig{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	tc.gw = gw
	for id, ws := range shards { // parked first, so no follower takes a leg's idle conn
		eventually(t, id+"'s grid follower parked", func() bool { return ws.parked.Load() == 1 })
	}
	return tc, shards
}

// serveGateway sends one request into the gateway's handler.
func serveGateway(ctx context.Context, gw *Gateway, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, req)
	return rec
}

// eventually polls cond for up to two seconds.
func eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

func (t *legTransport) idleCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, conns := range t.idle {
		n += len(conns)
	}
	return n
}

// TestGatewayCloseClosesLegConns: Close leaves no leg connection (and
// no goroutine) behind.
func TestGatewayCloseClosesLegConns(t *testing.T) {
	tc, shards := watchedCluster(t, "s0", "s1", "s2")
	baseline := runtime.NumGoroutine()
	for owner, loc := range tc.locations(t, 47) {
		rec := serveGateway(context.Background(), tc.gw, http.MethodPost, "/v1/upload/batch", frameOf(t, synthAt(20, 47, 1, loc)))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("upload for %s = %d %s", owner, rec.Code, rec.Body)
		}
	}
	if got := tc.gw.legs.idleCount(); got != 3 {
		t.Fatalf("%d idle leg conns after one upload per shard, want 3", got)
	}
	tc.gw.Close()
	for id, ws := range shards {
		eventually(t, "shard "+id+" saw its leg conn close", func() bool {
			return ws.accepted.Load() == 1 && ws.closed.Load() == 1
		})
	}
	eventually(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestLegPoolReapAndClose: the sweep closes what sat idle for
// legIdleTimeout and keeps the rest; a closed transport pools nothing.
func TestLegPoolReapAndClose(t *testing.T) {
	ws := newWatchedShard(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(20 * time.Millisecond) // long enough for both exchanges to overlap
	}))
	tr := &legTransport{}
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := (&http.Client{Transport: tr}).Get(ws.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if got := tr.idleCount(); got != 2 {
		t.Fatalf("%d idle conns, want 2", got)
	}
	tr.mu.Lock()
	for _, conns := range tr.idle {
		conns[0].idleSince = time.Now().Add(-legIdleTimeout)
	}
	tr.mu.Unlock()
	tr.reap()
	if got := tr.idleCount(); got != 1 {
		t.Errorf("%d idle conns after the sweep, want 1", got)
	}
	eventually(t, "the expired conn closed", func() bool { return ws.closed.Load() == 1 })
	tr.mu.Lock()
	armed := tr.reaper != nil
	tr.mu.Unlock()
	if !armed {
		t.Error("sweep not re-armed for the conn still idle")
	}

	tr.Close()
	resp, err := (&http.Client{Transport: tr}).Get(ws.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := tr.idleCount(); got != 0 {
		t.Errorf("%d conns pooled by a closed transport", got)
	}
	eventually(t, "every conn closed", func() bool { return ws.closed.Load() == 3 })
}

// TestLegRedialsStaleKeepAlive: a shard that dropped every connection
// between two uploads — as a restart on the same address does — costs
// one redial per kept connection, the upload's and the one the grid
// follower's poll was parked on: not an error, not a failover.
func TestLegRedialsStaleKeepAlive(t *testing.T) {
	n, _ := newTestNode(t, "s0", "")
	parked := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == gridPath && r.Header.Get("If-None-Match") != "" {
			select {
			case parked <- struct{}{}:
			default:
			}
		}
		n.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	gw, err := NewGateway(GatewayConfig{Shards: []ShardSpec{{ID: "s0", URLs: []string{ts.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	sh := gw.shards["s0"]
	upload := func() {
		t.Helper()
		if rec := serveGateway(context.Background(), gw, http.MethodPost, "/v1/upload/batch", frameOf(t, synthReadings(20, 47, 1))); rec.Code != http.StatusNoContent {
			t.Fatalf("upload = %d %s", rec.Code, rec.Body)
		}
	}
	// The follower's first sync, then its conditional poll parked on the
	// kept connection; the upload dials its own.
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("the grid follower never parked a poll")
	}
	upload()
	ts.CloseClientConnections()
	upload()
	eventually(t, "the follower's poll replayed", func() bool { return sh.redials.Value() == 2 })
	if sh.errs.Value() != 0 || gw.Failovers() != 0 {
		t.Errorf("redials=%d proxy_errors=%d failovers=%d, want 2, 0, 0",
			sh.redials.Value(), sh.errs.Value(), gw.Failovers())
	}
}

// TestLegWatchCancelClosesConn: a client hanging up on a parked watch
// leg frees the handler at once, with no answer written (nobody is left
// to read one), and the conn is closed, not pooled.
func TestLegWatchCancelClosesConn(t *testing.T) {
	parked, hungUp := make(chan struct{}), make(chan struct{})
	ws := newWatchedShard(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(parked)
		<-r.Context().Done()
		close(hungUp)
	}))
	gw, err := NewGateway(GatewayConfig{Shards: []ShardSpec{{ID: "s0", URLs: []string{ws.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		returned <- serveGateway(ctx, gw, http.MethodGet, "/v1/model/watch?channel=47&sensor=1&version=0", nil)
	}()
	<-parked
	cancel()
	select {
	case rec := <-returned:
		if rec.Code != http.StatusOK || rec.Flushed || rec.Body.Len() != 0 {
			t.Errorf("cancelled watch answered %d %q, want no answer", rec.Code, rec.Body)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("gateway handler still parked 100 ms after its client hung up")
	}
	select {
	case <-hungUp:
	case <-time.After(2 * time.Second):
		t.Fatal("shard never saw the watch conn close")
	}
	if got := gw.legs.idleCount(); got != 0 {
		t.Errorf("%d conns pooled after a cancelled watch", got)
	}
}

// rawShard is a scripted peer: it answers every request it can parse
// with reply, byte for byte, and hangs up after it when told to — all
// but a grid follower's poll, which parks as with parkGrid.
type rawShard struct {
	url      string
	accepted atomic.Int64
}

func newRawShard(t testing.TB, reply string, hangUp bool) *rawShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &rawShard{url: "http://" + ln.Addr().String()}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			rs.accepted.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					if req.URL.Path == gridPath { // a grid follower's poll: parked until the gateway hangs up
						io.Copy(io.Discard, br) //nolint:errcheck
						return
					}
					io.Copy(io.Discard, req.Body) //nolint:errcheck
					if _, err := io.WriteString(c, reply); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	return rs
}

const okReply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]"

// TestLegConnReuse: a connection is reused only after an exchange that
// left it in a known state. The peer never hangs up here, so every
// second accept is the transport declining to reuse.
func TestLegConnReuse(t *testing.T) {
	for _, tt := range []struct {
		name      string
		reply     string
		readBody  bool
		wantErr   bool
		wantConns int64
	}{
		{"keep-alive", okReply, true, false, 1},
		{"no body", "HTTP/1.1 204 No Content\r\n\r\n", true, false, 1},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n[]\r\n0\r\n\r\n", true, false, 1},
		{"Connection: close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n[]", true, false, 2},
		{"unread body", okReply, false, false, 2},
		{"HTTP/1.0", "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n[]", true, false, 2},
		{"bytes after the body", okReply + "HTTP/1.1 200 OK\r\n", true, false, 2},
		{"informational", "HTTP/1.1 103 Early Hints\r\n\r\n" + okReply, true, true, 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rs := newRawShard(t, tt.reply, false)
			tr := &legTransport{}
			defer tr.Close()
			for i := 0; i < 2; i++ {
				resp, err := (&http.Client{Transport: tr}).Post(rs.url+"/v1/route", "application/json", strings.NewReader("{}"))
				if tt.wantErr {
					if err == nil {
						t.Fatalf("exchange answered %s, want an error", resp.Status)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if tt.readBody {
					if _, err := io.ReadAll(resp.Body); err != nil {
						t.Fatal(err)
					}
				}
				resp.Body.Close()
			}
			if got := rs.accepted.Load(); got != tt.wantConns {
				t.Errorf("2 exchanges used %d conns, want %d", got, tt.wantConns)
			}
		})
	}
}

// TestLegTLS: an https shard URL is dialled through crypto/tls and its
// connection pooled like any other.
func TestLegTLS(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.TLS != nil)
	}))
	defer ts.Close()
	roots := x509.NewCertPool()
	roots.AddCert(ts.Certificate())
	tr := &legTransport{tls: &tls.Config{RootCAs: roots}}
	defer tr.Close()
	for i := 0; i < 2; i++ {
		resp, err := (&http.Client{Transport: tr}).Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "true" {
			t.Fatalf("shard saw TLS = %s", body)
		}
	}
	if got := tr.idleCount(); got != 1 {
		t.Errorf("%d idle conns after two exchanges, want the one reused", got)
	}
}

// TestLegMalformedResponseFailsOver: a response the transport cannot
// read is a leg error like any transport error — 502 from a shard with
// no other endpoint, the next endpoint otherwise.
func TestLegMalformedResponseFailsOver(t *testing.T) {
	for _, tt := range []struct{ name, reply string }{
		{"truncated status line", "HTTP/1.1 2"},
		{"header block over 1 MiB", "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("a", legMaxHeaderBytes) + "\r\n\r\n"},
		{"body shorter than Content-Length", "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n[]"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			bad, good := newRawShard(t, tt.reply, true), newRawShard(t, okReply, false)
			for _, urls := range [][]string{{bad.url}, {bad.url, good.url}} {
				gw, err := NewGateway(GatewayConfig{Shards: []ShardSpec{{ID: "s0", URLs: urls}}})
				if err != nil {
					t.Fatal(err)
				}
				rec := serveGateway(context.Background(), gw, http.MethodGet, "/v1/stats", nil)
				want := http.StatusBadGateway
				if len(urls) == 2 {
					want = http.StatusOK
				}
				if rec.Code != want {
					t.Errorf("%d endpoint(s): /v1/stats = %d %s, want %d", len(urls), rec.Code, rec.Body, want)
				}
				if len(urls) == 1 && !strings.Contains(rec.Body.String(), "s0") {
					t.Errorf("502 does not name the shard: %s", rec.Body)
				}
				sh := gw.shards["s0"]
				if sh.errs.Value() != 1 || gw.Failovers() != 1 || sh.redials.Value() != 0 {
					t.Errorf("%d endpoint(s): proxy_errors=%d failovers=%d redials=%d, want 1, 1, 0",
						len(urls), sh.errs.Value(), gw.Failovers(), sh.redials.Value())
				}
				gw.Close()
			}
		})
	}
}

// TestLegDeadlineFailsEndpoint: a leg that runs out of time on a reused
// connection is a failed endpoint, not a stale keep-alive to replay.
func TestLegDeadlineFailsEndpoint(t *testing.T) {
	var stall atomic.Bool
	release := make(chan struct{})
	slow := newWatchedShard(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if stall.Load() {
			<-release
		}
		io.WriteString(w, "[]") //nolint:errcheck
	}))
	defer close(release)
	gw, err := NewGateway(GatewayConfig{Shards: []ShardSpec{{ID: "s0", URLs: []string{slow.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	eventually(t, "the grid follower parked", func() bool { return slow.parked.Load() == 1 })
	if rec := serveGateway(context.Background(), gw, http.MethodGet, "/v1/stats", nil); rec.Code != http.StatusOK {
		t.Fatalf("warm-up = %d", rec.Code)
	}
	stall.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rec := serveGateway(ctx, gw, http.MethodGet, "/v1/stats", nil)
	sh := gw.shards["s0"]
	if rec.Code != http.StatusBadGateway || sh.errs.Value() != 1 || gw.Failovers() != 1 || sh.redials.Value() != 0 {
		t.Errorf("timed-out leg = %d: proxy_errors=%d failovers=%d redials=%d, want 502: 1, 1, 0",
			rec.Code, sh.errs.Value(), gw.Failovers(), sh.redials.Value())
	}
	if got := slow.accepted.Load(); got != 1 {
		t.Errorf("endpoint saw %d conns, want the reused one only", got)
	}
	if got := gw.legs.idleCount(); got != 0 {
		t.Errorf("%d conns pooled after a timed-out leg", got)
	}
}

// TestLegConnsNeverShared: 64 clients fanning stats reads and split
// uploads out to 3 shards; no connection ever carries two exchanges at
// once.
func TestLegConnsNeverShared(t *testing.T) {
	tc, shards := watchedCluster(t, "s0", "s1", "s2")
	var rs []dataset.Reading
	for _, loc := range tc.locations(t, 47) {
		rs = append(rs, synthAt(8, 47, 7, loc)...)
	}
	mixed := frameOf(t, rs)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if rec := serveGateway(context.Background(), tc.gw, http.MethodGet, "/v1/stats", nil); rec.Code != http.StatusOK {
					t.Errorf("stats = %d %s", rec.Code, rec.Body)
				}
				rec := serveGateway(context.Background(), tc.gw, http.MethodPost, "/v1/upload/batch", mixed)
				if rec.Code != http.StatusNoContent || len(strings.Split(rec.Header().Get(ShardHeader), ",")) != 3 {
					t.Errorf("split upload = %d on shards %q", rec.Code, rec.Header().Get(ShardHeader))
				}
			}
		}()
	}
	wg.Wait()
	for id, ws := range shards {
		if n := ws.overlaps.Load(); n != 0 {
			t.Errorf("shard %s: request bytes arrived %d times on a conn still handling a request", id, n)
		}
		if n := ws.accepted.Load(); n > 64 {
			t.Errorf("shard %s accepted %d conns for 64 clients", id, n)
		}
	}
	for _, sh := range tc.gw.shards {
		if sh.errs.Value() != 0 || sh.redials.Value() != 0 {
			t.Errorf("shard %s: proxy_errors=%d redials=%d", sh.spec.ID, sh.errs.Value(), sh.redials.Value())
		}
	}
}

// TestMergeLegNotJSON: merge legs are not pre-scanned, so it is the
// merge's own decode that must refuse a non-JSON 200 — with a 502 naming
// the shard — while broadcasts still embed one as a string. A place in a
// cell of a shard whose grid replica never synced is a 502 naming that
// shard too.
func TestMergeLegNotJSON(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			io.WriteString(w, "[]") //nolint:errcheck
			return
		}
		io.WriteString(w, "{}") //nolint:errcheck
	}))
	defer good.Close()
	bad := newRawShard(t, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\noops\n", false)
	gw, err := NewGateway(GatewayConfig{Shards: []ShardSpec{
		{ID: "s-good", URLs: []string{good.URL}}, {ID: "s-bad", URLs: []string{bad.url}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	owner := func(p geo.Point) string { return gw.Ring().Owner(RouteKey{Cell: CellOf(p, DefaultCellDeg)}) }
	route := func(pts ...geo.Point) string {
		req := dbserver.RouteRequestJSON{}
		for _, p := range pts {
			req.Points = append(req.Points, dbserver.RoutePointJSON{Lat: p.Lat, Lon: p.Lon})
		}
		b, _ := json.Marshal(req)
		return string(b)
	}
	// Walk north one cell at a time to a cell s-bad owns.
	var badCell geo.Point
	for i := 0; i < 200 && (badCell == geo.Point{}); i++ {
		if a := cellCenter(geo.Point{Lat: 33.6 + float64(i)*DefaultCellDeg, Lon: -84.5}); owner(a) == "s-bad" {
			badCell = a
		}
	}
	if (badCell == geo.Point{}) {
		t.Fatal("the walk found no s-bad cell")
	}
	for _, tt := range []struct{ method, target, body string }{
		{http.MethodGet, "/v1/stats", ""},
		{http.MethodGet, fmt.Sprintf("/v1/availability?lat=%v&lon=%v", badCell.Lat, badCell.Lon), ""},
		{http.MethodPost, "/v1/route", route(badCell, badCell.Offset(0, 1000))},
	} {
		rec := serveGateway(context.Background(), gw, tt.method, tt.target, []byte(tt.body))
		if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "s-bad") {
			t.Errorf("%s = %d %q, want 502 naming s-bad", tt.target, rec.Code, rec.Body)
		}
	}
	rec := serveGateway(context.Background(), gw, http.MethodPost, "/v1/admin/snapshot", nil)
	var legs []FanoutResult
	if err := json.Unmarshal(rec.Body.Bytes(), &legs); err != nil || len(legs) != 2 {
		t.Fatalf("broadcast answer %q: %v", rec.Body, err)
	}
	for _, leg := range legs {
		if want := map[string]string{"s-good": "{}", "s-bad": `"oops\n"`}[leg.Shard]; string(leg.Body) != want {
			t.Errorf("leg %s body = %s, want %s", leg.Shard, leg.Body, want)
		}
	}
}
