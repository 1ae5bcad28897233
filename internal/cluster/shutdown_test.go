package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// TestGatewayBeginShutdownAnswersParkedWatches: a watch parked through
// the gateway has no timeout to end it, so BeginShutdown must — with a
// 503 that sends the client to re-arm, at once, and without blaming
// the shard, which is fine. The shards' grid polls park, so the gateway
// copies no store and the watches park on the shard.
func TestGatewayBeginShutdownAnswersParkedWatches(t *testing.T) {
	tc := wrappedCluster(t, []string{"s0", "s1", "s2"}, gridParked)
	locs := tc.locations(t, 47)
	var owner string
	for id := range locs {
		owner = id
		break
	}
	loc := locs[owner]
	hint := fmt.Sprintf("&lat=%s&lon=%s",
		strconv.FormatFloat(loc.Lat, 'f', -1, 64), strconv.FormatFloat(loc.Lon, 'f', -1, 64))
	resp := postFrame(t, tc.gwTS.URL, frameOf(t, synthAt(80, 47, 9, loc)), 0)
	resp.Body.Close()
	retrain := mustPost(t, tc.gwTS.URL+"/v1/retrain?channel=47&sensor=1"+hint, nil)
	retrain.Body.Close()
	if resp.StatusCode != http.StatusNoContent || retrain.StatusCode != http.StatusOK {
		t.Fatalf("seed upload = %s, retrain = %s", resp.Status, retrain.Status)
	}

	const watchers = 4
	statuses := make(chan string, watchers)
	for range watchers {
		go func() {
			resp, err := http.Get(tc.gwTS.URL + "/v1/model/watch?channel=47&sensor=1&version=1" + hint)
			if err != nil {
				statuses <- "error: " + err.Error()
				return
			}
			resp.Body.Close()
			statuses <- resp.Status
		}()
	}
	active := tc.nodes[owner].DB.Metrics().Gauge("waldo_dbserver_watch_active", "")
	for deadline := time.Now().Add(5 * time.Second); active.Value() != watchers; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v watches parked on %s, want %d", active.Value(), owner, watchers)
		}
	}

	start := time.Now()
	tc.gw.BeginShutdown()
	for i := range watchers {
		select {
		case got := <-statuses:
			if got != "503 Service Unavailable" {
				t.Errorf("a parked watch got %q at gateway shutdown, want 503", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("watch %d still parked %v after BeginShutdown", i, time.Since(start))
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("parked watches took %v to answer, want at once", d)
	}
	if n := tc.gw.Failovers(); n != 0 {
		t.Errorf("%d failovers: the shutdown was blamed on the shard", n)
	}
	if n := tc.gw.shards[owner].errs.Value(); n != 0 {
		t.Errorf("waldo_cluster_proxy_errors_total{shard=%s} = %d, want 0", owner, n)
	}
	// The shard notices the dropped leg and frees its watchers.
	for deadline := time.Now().Add(5 * time.Second); active.Value() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v watches still parked on %s after the gateway dropped its legs", active.Value(), owner)
		}
	}
	// Anything but a parked watch is still served during the drain.
	stats, err := http.Get(tc.gwTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if stats.StatusCode != http.StatusOK {
		t.Errorf("/v1/stats during the drain = %s, want 200", stats.Status)
	}
}

// TestAbandonedForwardedWatchIsNotTheShards: a client that hangs up a
// watch the gateway forwarded ends the leg, and that is the client's
// doing — no proxy error, no failover, no answer (so no 502 counted and
// no errored trace pinned), and the shard's primary, healthy throughout,
// stays its active endpoint though a replica is configured.
// The shard's grid polls park, so the gateway copies no store and
// forwards the watch.
func TestAbandonedForwardedWatchIsNotTheShards(t *testing.T) {
	n, _ := newTestNode(t, "s0", "")
	loc := cellCenter(rfenv.MetroCenter)
	if err := n.DB.Bootstrap(fieldAt(400, 47, loc, -100)); err != nil {
		t.Fatal(err)
	}
	primary := httptest.NewServer(gridParked(n.Handler()))
	t.Cleanup(primary.Close) // after the gateway's: its grid polls park here
	replica := httptest.NewServer(gridParked(http.NotFoundHandler()))
	t.Cleanup(replica.Close)
	gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{primary.URL, replica.URL}})
	sh := gw.shards["s0"]

	ctx, hangUp := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		done <- serveGateway(ctx, gw, http.MethodGet, "/v1/model/watch?channel=47&sensor=1&version=99"+hintAt(loc), nil)
	}()
	active := n.DB.Metrics().Gauge("waldo_dbserver_watch_active", "")
	eventually(t, "the forwarded watch parked on the shard", func() bool { return active.Value() == 1 })
	hangUp()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned watch's leg outlived its client")
	}
	eventually(t, "the shard saw the hang-up", func() bool { return active.Value() == 0 })
	if f := gw.Failovers(); f != 0 {
		t.Errorf("waldo_cluster_failover_total = %d, want 0", f)
	}
	if e := sh.errs.Value(); e != 0 {
		t.Errorf(`waldo_cluster_proxy_errors_total{shard="s0"} = %d, want 0`, e)
	}
	if got := sh.currentURL(); got != primary.URL {
		t.Errorf("active endpoint %s, want the primary %s", got, primary.URL)
	}
	// Nothing failed, so nothing is answered, counted as a 502 or pinned
	// as an errored trace.
	if n := gw.metrics.Counter("waldo_http_requests_total", "", "route", modelWatchPath, "code", "502").Value(); n != 0 {
		t.Errorf(`waldo_http_requests_total{route=%q,code="502"} = %d, want 0`, modelWatchPath, n)
	}
	if errs := gw.metrics.FlightRecorder().Snapshot(telemetry.TraceFilter{Class: "error"}); len(errs) != 0 {
		t.Errorf("%d traces in the flight recorder's error ring, want 0", len(errs))
	}
}
