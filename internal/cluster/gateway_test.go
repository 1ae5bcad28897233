package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// synthAt clusters n readings within ~400 m of loc, so the whole batch
// shares one routing cell at any reasonable cell quantum.
func synthAt(n int, ch rfenv.Channel, seed int64, loc geo.Point) []dataset.Reading {
	rs := synthReadings(n, ch, seed)
	for i := range rs {
		rs[i].Loc = loc.Offset(float64(i*37%360), float64(i%40)*10)
	}
	return rs
}

// testCluster is a 3-shard single-node-per-shard topology behind one
// gateway, each piece on its own httptest server.
type testCluster struct {
	gw      *Gateway
	gwTS    *httptest.Server
	nodes   map[string]*Node
	nodeTS  map[string]*httptest.Server
	cellDeg float64
}

// legs sums waldo_cluster_requests_total over the gateway's shards: one
// per gateway→shard request.
func (tc *testCluster) legs() uint64 {
	var n uint64
	for _, sh := range tc.gw.shards {
		n += sh.requests.Value()
	}
	return n
}

func newTestCluster(t testing.TB, shardIDs []string) *testCluster {
	return wrappedCluster(t, shardIDs, nil)
}

// wrappedCluster is newTestCluster with each shard served through
// wrap(its handler) when wrap is not nil.
func wrappedCluster(t testing.TB, shardIDs []string, wrap func(http.Handler) http.Handler) *testCluster {
	t.Helper()
	tc := &testCluster{
		nodes:   map[string]*Node{},
		nodeTS:  map[string]*httptest.Server{},
		cellDeg: DefaultCellDeg,
	}
	var specs []ShardSpec
	for _, id := range shardIDs {
		n, ts := newTestNode(t, id, nil)
		if wrap != nil {
			ts = httptest.NewServer(wrap(n.Handler()))
			t.Cleanup(ts.Close)
		}
		tc.nodes[id] = n
		tc.nodeTS[id] = ts
		specs = append(specs, ShardSpec{ID: id, URLs: []string{ts.URL}})
	}
	gw, err := NewGateway(GatewayConfig{Shards: specs, Ring: RingConfig{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	tc.gw = gw
	tc.gwTS = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		tc.gwTS.Close()
		gw.Close()
	})
	return tc
}

// cellCenter snaps a location to the center of its routing cell, so a
// batch synthesized within ~400 m of it can never straddle a cell
// boundary.
func cellCenter(p geo.Point, cellDeg float64) geo.Point {
	c := CellOf(p, cellDeg)
	return geo.Point{
		Lat: (float64(c.X) + 0.5) * cellDeg,
		Lon: (float64(c.Y) + 0.5) * cellDeg,
	}
}

// locations returns one probe location per shard: points 6 km apart
// east of the metro center, snapped to their cell centers, mapped to
// whichever shard the ring says owns them, until every shard is covered.
func (tc *testCluster) locations(t testing.TB, ch rfenv.Channel) map[string]geo.Point {
	t.Helper()
	out := map[string]geo.Point{}
	for i := 0; i < 200 && len(out) < len(tc.nodes); i++ {
		loc := cellCenter(rfenv.MetroCenter.Offset(90, float64(i)*6000), tc.cellDeg)
		owner := tc.gw.Ring().Owner(RouteKey{Channel: ch, Cell: CellOf(loc, tc.cellDeg)})
		if _, seen := out[owner]; !seen {
			out[owner] = loc
		}
	}
	if len(out) < len(tc.nodes) {
		t.Fatalf("probe walk covered only %d of %d shards", len(out), len(tc.nodes))
	}
	return out
}

// TestGatewayRoutesByCell uploads one batch per shard-owned cell through
// the gateway and checks each landed on exactly the ring-designated
// shard.
func TestGatewayRoutesByCell(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	locs := tc.locations(t, 47)
	for owner, loc := range locs {
		resp := mustPost(t, tc.gwTS.URL+"/v1/readings", uploadBody(t, synthAt(50, 47, 1, loc)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload for %s = %s", owner, resp.Status)
		}
	}
	for id, ts := range tc.nodeTS {
		body := mustGetBody(t, ts.URL+"/v1/export?channel=47&sensor=1", http.StatusOK)
		rows := len(body)
		if rows == 0 {
			t.Errorf("shard %s: empty export", id)
		}
		var stats []dbserver.StatsJSON
		if err := json.Unmarshal(mustGetBody(t, ts.URL+"/v1/stats", http.StatusOK), &stats); err != nil {
			t.Fatal(err)
		}
		if len(stats) != 1 || stats[0].Readings != 50 {
			t.Errorf("shard %s holds %+v, want exactly its own 50-reading batch", id, stats)
		}
	}

	// A model GET with the same location hint must route to the same
	// shard (checked via the X-Waldo-Shard response header).
	for owner, loc := range locs {
		url := tc.gwTS.URL + "/v1/export?channel=47&sensor=1&lat=" +
			strconv.FormatFloat(loc.Lat, 'f', -1, 64) + "&lon=" + strconv.FormatFloat(loc.Lon, 'f', -1, 64)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Waldo-Shard"); got != owner {
			t.Errorf("hinted export routed to %q, want %q", got, owner)
		}
		if v := resp.Header.Get(ClusterVersionHeader); v != tc.gw.ConfigVersion() {
			t.Errorf("cluster version header %q, want %q", v, tc.gw.ConfigVersion())
		}
	}
}

// TestGatewaySplitsMixedCellUpload: a single upload whose readings span
// routing cells owned by different shards is split at the gateway, each
// piece landing on its ring-designated shard — not stored wholesale
// wherever the first reading pointed.
func TestGatewaySplitsMixedCellUpload(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	locs := tc.locations(t, 47)
	want := map[string]int{}
	var mixed []dataset.Reading
	share := 20
	for owner, loc := range locs {
		mixed = append(mixed, synthAt(share, 47, 7, loc)...)
		want[owner] = share
		share += 10 // unequal shares so misrouting shows up in counts
	}
	resp := mustPost(t, tc.gwTS.URL+"/v1/readings", uploadBody(t, mixed))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("mixed-cell upload = %s", resp.Status)
	}
	for id, ts := range tc.nodeTS {
		var stats []dbserver.StatsJSON
		if err := json.Unmarshal(mustGetBody(t, ts.URL+"/v1/stats", http.StatusOK), &stats); err != nil {
			t.Fatal(err)
		}
		got := 0
		if len(stats) == 1 {
			got = stats[0].Readings
		}
		if got != want[id] {
			t.Errorf("shard %s holds %d readings, want %d", id, got, want[id])
		}
	}
	if v := tc.gw.uploadSplits.Value(); v < 1 {
		t.Errorf("upload split counter = %v, want ≥ 1", v)
	}

	// The split pieces must be visible to location-hinted reads — the
	// whole point of routing them correctly.
	for owner, loc := range locs {
		url := tc.gwTS.URL + "/v1/export?channel=47&sensor=1&lat=" +
			strconv.FormatFloat(loc.Lat, 'f', -1, 64) + "&lon=" + strconv.FormatFloat(loc.Lon, 'f', -1, 64)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("hinted export for %s = %s", owner, resp.Status)
		}
		if got := resp.Header.Get("X-Waldo-Shard"); got != owner {
			t.Errorf("hinted export routed to %q, want %q", got, owner)
		}
	}
}

// TestGatewayStatsMerge checks the cross-shard read path: per-shard
// reading counts sum, and the reported model version is the freshest.
func TestGatewayStatsMerge(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	locs := tc.locations(t, 47)
	for _, loc := range locs {
		resp := mustPost(t, tc.gwTS.URL+"/v1/readings", uploadBody(t, synthAt(300, 47, 2, loc)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload = %s", resp.Status)
		}
	}
	// Hintless retrain broadcasts; every shard has channel 47 data.
	resp := mustPost(t, tc.gwTS.URL+"/v1/retrain?channel=47&sensor=1", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast retrain = %s", resp.Status)
	}
	var legs []FanoutResult
	if err := json.NewDecoder(resp.Body).Decode(&legs); err != nil {
		t.Fatal(err)
	}
	if len(legs) != 3 {
		t.Fatalf("retrain fan-out touched %d shards, want 3", len(legs))
	}
	for _, leg := range legs {
		if leg.Status != http.StatusOK {
			t.Errorf("shard %s retrain = %d", leg.Shard, leg.Status)
		}
	}

	var merged []dbserver.StatsJSON
	if err := json.Unmarshal(mustGetBody(t, tc.gwTS.URL+"/v1/stats", http.StatusOK), &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 {
		t.Fatalf("merged stats = %+v, want one channel/sensor row", merged)
	}
	if merged[0].Readings != 900 {
		t.Errorf("merged readings = %d, want 900 summed across shards", merged[0].Readings)
	}
	if merged[0].ModelVersion != 1 {
		t.Errorf("merged model version = %d, want 1", merged[0].ModelVersion)
	}
}

// TestGatewayFailover kills a shard's primary endpoint and checks the
// same client request succeeds against the replica endpoint, that
// failover is sticky, and that the failover counter fired.
func TestGatewayFailover(t *testing.T) {
	// One shard, two endpoints: a dead primary and a live replica.
	replica, replicaTS := newTestNode(t, "s0r", nil)
	if err := replica.DB.Bootstrap(synthReadings(600, 47, 1)); err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on

	gw, err := NewGateway(GatewayConfig{
		Shards: []ShardSpec{{ID: "s0", URLs: []string{dead.URL, replicaTS.URL}}},
		Ring:   RingConfig{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()

	// /healthz is the gateway's own topology view. Before any routed
	// request the shard still targets its first (dead) endpoint.
	type healthz struct {
		ClusterVersion string         `json:"cluster_version"`
		RingNodes      int            `json:"ring_nodes"`
		Shards         []healthzShard `json:"shards"`
	}
	getHealthz := func() healthz {
		t.Helper()
		var h healthz
		if err := json.Unmarshal(mustGetBody(t, gwTS.URL+"/healthz", http.StatusOK), &h); err != nil {
			t.Fatalf("healthz payload: %v", err)
		}
		if h.RingNodes != 1 || len(h.Shards) != 1 || h.Shards[0].ID != "s0" {
			t.Fatalf("healthz topology = %+v, want one ring node, shard s0", h)
		}
		return h
	}
	before := getHealthz()
	if want := []string{dead.URL, replicaTS.URL}; !reflect.DeepEqual(before.Shards[0].URLs, want) {
		t.Errorf("healthz urls = %v, want %v", before.Shards[0].URLs, want)
	}
	if before.Shards[0].Active != dead.URL {
		t.Errorf("healthz active before failover = %q, want primary %q", before.Shards[0].Active, dead.URL)
	}

	body := mustGetBody(t, gwTS.URL+"/v1/model?channel=47&sensor=1", http.StatusOK)
	if len(body) == 0 {
		t.Fatal("empty model after failover")
	}
	direct := mustGetBody(t, replicaTS.URL+"/v1/model?channel=47&sensor=1", http.StatusOK)
	if string(body) != string(direct) {
		t.Error("gateway-served model differs from replica's")
	}
	// Sticky: the next request goes straight to the replica endpoint.
	if got := gw.shards["s0"].currentURL(); got != replicaTS.URL {
		t.Errorf("active endpoint = %q, want replica %q", got, replicaTS.URL)
	}
	if v := gw.failovers.Value(); v < 1 {
		t.Errorf("failover counter = %v, want ≥ 1", v)
	}
	// ... and /healthz says so, under the version routed responses carry.
	if got := getHealthz().Shards[0].Active; got != replicaTS.URL {
		t.Errorf("healthz active after failover = %q, want replica %q", got, replicaTS.URL)
	}
	resp, err := http.Get(gwTS.URL + "/v1/model?channel=47&sensor=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(ClusterVersionHeader); got == "" || got != before.ClusterVersion {
		t.Errorf("healthz cluster_version = %q, routed response carries %q", before.ClusterVersion, got)
	}

	// The buffering consumer fails over by the same loop: a second gateway
	// over the same topology still targets the dead primary when /v1/stats
	// fans out through it.
	gw2, err := NewGateway(GatewayConfig{Shards: gw.cfg.Shards, Ring: gw.cfg.Ring})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	gw2TS := httptest.NewServer(gw2.Handler())
	defer gw2TS.Close()
	var stats []dbserver.StatsJSON
	if err := json.Unmarshal(mustGetBody(t, gw2TS.URL+"/v1/stats", http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Channel != 47 || stats[0].Readings != 600 {
		t.Errorf("stats through a dead primary = %+v, want the replica's 600 channel-47 readings", stats)
	}
	if got := gw2.shards["s0"].currentURL(); got != replicaTS.URL || gw2.failovers.Value() != 1 {
		t.Errorf("fan-out left active = %q with %d failovers, want replica %q and 1",
			got, gw2.failovers.Value(), replicaTS.URL)
	}
	// However many endpoints a call walked, it is one leg span per shard;
	// the second model fetch is answered from the replica the first
	// seeded, with none.
	for ts, want := range map[*httptest.Server][3]any{
		gwTS: {"/v1/model", 2, 1}, gw2TS: {"/v1/stats", 1, 1},
	} {
		route, traces, legs := want[0].(string), 0, 0
		for _, tr := range fetchTrace(t, ts.URL, "").Traces {
			if names := spanNames(tr); names[route] > 0 {
				traces++
				legs += names[route+"/leg"]
			}
		}
		if traces != want[1] || legs != want[2] {
			t.Errorf("%d %s traces retained with %d leg spans, want %d with %d", traces, route, legs, want[1], want[2])
		}
	}
}

// TestGatewayAllEndpointsDown: when every endpoint of the owning shard
// refuses connections the gateway answers 502, not a hang or a crash.
func TestGatewayAllEndpointsDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	gw, err := NewGateway(GatewayConfig{
		Shards: []ShardSpec{{ID: "s0", URLs: []string{dead.URL}}},
		Ring:   RingConfig{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()
	mustGetBody(t, gwTS.URL+"/v1/model?channel=47&sensor=1", http.StatusBadGateway)
}

// TestConfigVersionStability: the fingerprint is stable across shard
// order and changes when topology changes.
func TestConfigVersionStability(t *testing.T) {
	a := []ShardSpec{{ID: "s0", URLs: []string{"http://a"}}, {ID: "s1", URLs: []string{"http://b"}}}
	b := []ShardSpec{a[1], a[0]}
	if ConfigVersion(1, 128, 0.05, a) != ConfigVersion(1, 128, 0.05, b) {
		t.Error("fingerprint depends on shard order")
	}
	grown := append(append([]ShardSpec(nil), a...), ShardSpec{ID: "s2", URLs: []string{"http://c"}})
	if ConfigVersion(1, 128, 0.05, a) == ConfigVersion(1, 128, 0.05, grown) {
		t.Error("fingerprint misses a membership change")
	}
	if ConfigVersion(1, 128, 0.05, a) == ConfigVersion(2, 128, 0.05, a) {
		t.Error("fingerprint misses a seed change")
	}
}

// TestConfigVersionNamesThePlacementRule: the same routing inputs that
// fingerprinted a (channel, cell)-placed cluster give another value once
// placement is by cell, so a fleet sees the re-ring.
func TestConfigVersionNamesThePlacementRule(t *testing.T) {
	a := []ShardSpec{{ID: "s0", URLs: []string{"http://a"}}, {ID: "s1", URLs: []string{"http://b"}}}
	const channelCellPlaced = "87c5dd123019f846"
	if got := ConfigVersion(1, 128, 0.05, a); got == channelCellPlaced {
		t.Errorf("fingerprint %s is the (channel, cell) placement's", got)
	}
}

// TestModelRevalidationCrossesShards: each shard counts model versions
// on its own, so after one retrain every shard's channel 47 is v1. A WSD
// that fetched it in one shard's cell and revalidates in another's must
// get that shard's descriptor, not a 304 for a model trained on other
// localities.
func TestModelRevalidationCrossesShards(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	fetch := func(at geo.Point, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, tc.gwTS.URL+"/v1/model?channel=47&sensor=1&lat="+
			strconv.FormatFloat(at.Lat, 'f', -1, 64)+"&lon="+strconv.FormatFloat(at.Lon, 'f', -1, 64), nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	first := fetch(free["s0"], "")
	etag := first.Header.Get("ETag")
	if first.StatusCode != http.StatusOK || first.Header.Get(ShardHeader) != "s0" {
		t.Fatalf("fetch in s0's cell = %s from %q", first.Status, first.Header.Get(ShardHeader))
	}
	if resp := fetch(free["s0"], etag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation at s0 = %s, want 304", resp.Status)
	}
	moved := fetch(free["s1"], etag)
	if v0, v1 := first.Header.Get("X-Waldo-Model-Version"), moved.Header.Get("X-Waldo-Model-Version"); v0 != v1 {
		t.Fatalf("s0 is at v%s, s1 at v%s: the versions must collide for this test", v0, v1)
	}
	if moved.StatusCode != http.StatusOK || moved.Header.Get("ETag") == etag {
		t.Errorf("s0's %s revalidated at s1 = %s with ETag %s, want s1's own descriptor",
			etag, moved.Status, moved.Header.Get("ETag"))
	}
}

// TestWatchModelCrossesShards: a device holding s0's v3 of a channel
// moves into s1's cell, where the channel is at v1 — a different model.
// Its watch names the descriptor it holds, not a version s1 never
// counted to, so s1's model comes back at once.
func TestWatchModelCrossesShards(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	at := func(p geo.Point) string {
		return "&lat=" + strconv.FormatFloat(p.Lat, 'f', -1, 64) + "&lon=" + strconv.FormatFloat(p.Lon, 'f', -1, 64)
	}
	for i := 0; i < 2; i++ {
		resp := mustPost(t, tc.gwTS.URL+"/v1/retrain?channel=47&sensor=1"+at(free["s0"]), nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retrain at s0 = %s", resp.Status)
		}
	}
	c, err := client.New(tc.gwTS.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.SetLocationHint(free["s0"])
	if _, _, err := c.Model(ctx, 47, sensor.KindRTLSDR); err != nil {
		t.Fatal(err)
	}
	if v := c.CachedModelVersion(47, sensor.KindRTLSDR); v != "3" {
		t.Fatalf("s0's model is v%s, want v3", v)
	}
	c.SetLocationHint(free["s1"])
	if _, _, err := c.WatchModel(ctx, 47, sensor.KindRTLSDR); err != nil {
		t.Fatalf("watch in s1's cell holding s0's v3: %v", err)
	}
	if v := c.CachedModelVersion(47, sensor.KindRTLSDR); v != "1" {
		t.Errorf("watch in s1's cell delivered v%s, want s1's v1", v)
	}
}
