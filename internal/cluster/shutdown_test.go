package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestGatewayBeginShutdownAnswersParkedWatches: a watch parked through
// the gateway has no timeout to end it, so BeginShutdown must — with a
// 503 that sends the client to re-arm, at once, and without blaming
// the shard, which is fine.
func TestGatewayBeginShutdownAnswersParkedWatches(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
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
