package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// TestCellOfBoundaryGolden pins the routing quantization at the cluster
// layer. cluster.Cell aliases geoindex.Cell so placement and the
// availability grid can never disagree on cell identity; these goldens
// guard the boundary cases (negative coordinates floor away from zero,
// the antimeridian, exact cell edges) against anyone re-homing CellOf
// with truncation semantics.
func TestCellOfBoundaryGolden(t *testing.T) {
	if DefaultCellDeg != geoindex.DefaultCellDeg {
		t.Fatalf("cluster quantum %v != geoindex quantum %v", DefaultCellDeg, geoindex.DefaultCellDeg)
	}
	golden := []struct {
		lat, lon float64
		cellDeg  float64
		want     Cell
	}{
		{0, 0, DefaultCellDeg, Cell{X: 0, Y: 0}},
		// Truncation would give {0,0} here; floor must give {-1,-1}.
		{-0.01, -0.01, DefaultCellDeg, Cell{X: -1, Y: -1}},
		// Exact cell edges belong to the cell they open.
		{0.05, 0.05, DefaultCellDeg, Cell{X: 1, Y: 1}},
		{-0.05, -0.05, DefaultCellDeg, Cell{X: -1, Y: -1}},
		// Antimeridian: the two sides land in distinct, non-wrapping cells.
		{10, 179.99, DefaultCellDeg, Cell{X: 200, Y: 3599}},
		{10, -180, DefaultCellDeg, Cell{X: 200, Y: -3600}},
		// A coarser quantum rescales, it does not re-center.
		{-0.01, 0.19, 0.1, Cell{X: -1, Y: 1}},
	}
	for _, g := range golden {
		got := CellOf(geo.Point{Lat: g.lat, Lon: g.lon}, g.cellDeg)
		if got != g.want {
			t.Errorf("CellOf(%v,%v @ %v) = %+v, want %+v", g.lat, g.lon, g.cellDeg, got, g.want)
		}
		if gi := geoindex.CellOf(geo.Point{Lat: g.lat, Lon: g.lon}, g.cellDeg); gi != got {
			t.Errorf("cluster and geoindex disagree at (%v,%v): %+v vs %+v", g.lat, g.lon, got, gi)
		}
	}
}

// fieldAt clusters n readings of uniform signal strength within ~400 m
// of loc: rss -100 reads as free, -70 as occupied. Unlike synthAt it
// does not mix classes, so the cell's grid verdict is deterministic.
func fieldAt(n int, ch rfenv.Channel, loc geo.Point, rss float64) []dataset.Reading {
	rs := make([]dataset.Reading, n)
	for i := range rs {
		rs[i] = dataset.Reading{
			Seq: i, Loc: loc.Offset(float64(i*37%360), float64(i%40)*10),
			Channel: ch, Sensor: sensor.KindRTLSDR,
			Signal: features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
		}
	}
	return rs
}

// westLocations mirrors locations() on the opposite bearing: one
// shard-owned cell center per shard, walking west so the cells are
// disjoint from the eastern probe walk.
func (tc *testCluster) westLocations(t *testing.T, ch rfenv.Channel) map[string]geo.Point {
	t.Helper()
	out := map[string]geo.Point{}
	for i := 1; i < 400 && len(out) < len(tc.nodes); i++ {
		loc := cellCenter(rfenv.MetroCenter.Offset(270, float64(i)*6000), tc.cellDeg)
		owner := tc.gw.Ring().Owner(RouteKey{Channel: ch, Cell: CellOf(loc, tc.cellDeg)})
		if _, seen := out[owner]; !seen {
			out[owner] = loc
		}
	}
	if len(out) < len(tc.nodes) {
		t.Fatalf("west probe walk covered only %d of %d shards", len(out), len(tc.nodes))
	}
	return out
}

// seedGeoCluster gives every shard a free cell (east walk) and an
// occupied cell (west walk), retrains the whole cluster through the
// gateway, and waits for each shard's grid rebuild to land. Returns the
// per-shard free and occupied cell centers.
func seedGeoCluster(t *testing.T, tc *testCluster, ch rfenv.Channel) (free, occupied map[string]geo.Point) {
	t.Helper()
	free = tc.locations(t, ch)
	occupied = tc.westLocations(t, ch)
	for id := range tc.nodes {
		for _, batch := range [][]dataset.Reading{
			fieldAt(400, ch, free[id], -100),
			fieldAt(400, ch, occupied[id], -70),
		} {
			resp := mustPost(t, tc.gwTS.URL+"/v1/readings", uploadBody(t, batch))
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("seed upload for %s = %s", id, resp.Status)
			}
		}
	}
	resp := mustPost(t, tc.gwTS.URL+fmt.Sprintf("/v1/retrain?channel=%d&sensor=%d", ch, sensor.KindRTLSDR), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast retrain = %s", resp.Status)
	}
	// Grid rebuilds run off the request path; wait for every shard's to
	// land before querying.
	deadline := time.Now().Add(5 * time.Second)
	for id, n := range tc.nodes {
		for n.DB.GeoIndex().Snapshot().Generation == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("shard %s grid never rebuilt after retrain", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return free, occupied
}

func entryFor(entries []dbserver.AvailabilityEntryJSON, ch rfenv.Channel) (dbserver.AvailabilityEntryJSON, bool) {
	for _, e := range entries {
		if e.Channel == int(ch) {
			return e, true
		}
	}
	return dbserver.AvailabilityEntryJSON{}, false
}

// TestGatewayAvailability exercises both gateway paths: the unfiltered
// query fans out to every shard and merges, the channel-filtered query
// forwards straight to the single owning shard.
func TestGatewayAvailability(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, occupied := seedGeoCluster(t, tc, 47)

	for id, loc := range free {
		// Unfiltered: merged across all shards.
		url := fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var av dbserver.AvailabilityJSON
		if err := json.NewDecoder(resp.Body).Decode(&av); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("availability at %s's cell = %s", id, resp.Status)
		}
		if got := len(strings.Split(resp.Header.Get(ShardHeader), ",")); got != len(tc.nodes) {
			t.Errorf("merged availability consulted %d shards, want %d", got, len(tc.nodes))
		}
		e, ok := entryFor(av.Channels, 47)
		if !ok || e.Status != "free" {
			t.Errorf("shard %s free cell: entry=%+v ok=%v, want ch47 free", id, e, ok)
		}
		if av.Generation == 0 {
			t.Errorf("merged generation 0 after rebuilds landed")
		}

		// Filtered to one channel: exactly one (channel, cell) owner, so
		// the gateway forwards instead of fanning out.
		owner := tc.gw.Ring().Owner(RouteKey{Channel: 47, Cell: CellOf(loc, tc.cellDeg)})
		resp2, err := http.Get(url + "&channels=47")
		if err != nil {
			t.Fatal(err)
		}
		var fav dbserver.AvailabilityJSON
		if err := json.NewDecoder(resp2.Body).Decode(&fav); err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if got := resp2.Header.Get(ShardHeader); got != owner {
			t.Errorf("filtered availability served by %q, want owner %q", got, owner)
		}
		if e, ok := entryFor(fav.Channels, 47); !ok || e.Status != "free" {
			t.Errorf("forwarded availability at %s: entry=%+v ok=%v, want ch47 free", id, e, ok)
		}
	}
	// One occupied-cell spot check through the merge path.
	loc := occupied["s0"]
	body := mustGetBody(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon), http.StatusOK)
	var av dbserver.AvailabilityJSON
	if err := json.Unmarshal(body, &av); err != nil {
		t.Fatal(err)
	}
	if e, ok := entryFor(av.Channels, 47); !ok || e.Status != "occupied" {
		t.Errorf("occupied cell: entry=%+v ok=%v, want ch47 occupied", e, ok)
	}

	if fwd := tc.gw.geomerge.availForwarded.Value(); fwd != uint64(len(free)) {
		t.Errorf("forwarded count = %d, want %d", fwd, len(free))
	}
	if merged := tc.gw.geomerge.availMerged.Value(); merged != uint64(len(free))+1 {
		t.Errorf("merged count = %d, want %d", merged, len(free)+1)
	}

	// Gateway-level validation rejects before any fan-out.
	for _, q := range []string{"?lat=91&lon=0", "?lat=x&lon=0", "?lat=0&lon=0&channels=bogus"} {
		resp, err := http.Get(tc.gwTS.URL + "/v1/availability" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("availability%s = %s, want 400", q, resp.Status)
		}
	}
}

// TestGatewayRouteMergeAcrossShards drives the acceptance route: a
// polyline visiting every shard's free cell, so the answer necessarily
// assembles verdicts owned by different shards.
func TestGatewayRouteMergeAcrossShards(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)

	// The east walk is a straight bearing-90 line, so ordering by
	// longitude orders the waypoints along the walk.
	locs := make([]geo.Point, 0, len(free))
	for _, loc := range free {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].Lon < locs[j].Lon })
	req := dbserver.RouteRequestJSON{StepM: 500}
	for _, loc := range locs {
		req.Points = append(req.Points, dbserver.RoutePointJSON{Lat: loc.Lat, Lon: loc.Lon})
	}
	body, _ := json.Marshal(req)

	resp := mustPost(t, tc.gwTS.URL+"/v1/route", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route = %s", resp.Status)
	}
	if got := len(strings.Split(resp.Header.Get(ShardHeader), ",")); got != len(tc.nodes) {
		t.Errorf("route consulted %d shards, want %d", got, len(tc.nodes))
	}
	var route dbserver.RouteJSON
	if err := json.NewDecoder(resp.Body).Decode(&route); err != nil {
		t.Fatal(err)
	}
	if len(route.Segments) < len(locs) || route.TotalM <= 0 || route.ConfidenceDecay != 1 {
		t.Fatalf("segments=%d total_m=%v decay=%v", len(route.Segments), route.TotalM, route.ConfidenceDecay)
	}

	// Every shard's free cell must appear in the merged answer with its
	// own verdict, and the verdict-bearing cells must span shards —
	// proof the merge crossed ownership boundaries.
	owners := map[string]bool{}
	for _, seg := range route.Segments {
		if len(seg.Channels) == 0 {
			continue
		}
		owners[tc.gw.Ring().Owner(RouteKey{Channel: 47, Cell: Cell{X: seg.CellX, Y: seg.CellY}})] = true
	}
	if len(owners) < 2 {
		t.Errorf("verdict-bearing segments owned by %d shard(s), want >=2: %v", len(owners), owners)
	}
	for id, loc := range free {
		cell := CellOf(loc, tc.cellDeg)
		found := false
		for _, seg := range route.Segments {
			if seg.CellX != cell.X || seg.CellY != cell.Y {
				continue
			}
			found = true
			if e, ok := entryFor(seg.Channels, 47); !ok || e.Status != "free" {
				t.Errorf("shard %s cell %+v: entry=%+v ok=%v, want ch47 free", id, cell, e, ok)
			}
		}
		if !found {
			t.Errorf("route skipped shard %s's waypoint cell %+v", id, cell)
		}
	}
	if ok := tc.gw.geomerge.routeOK.Value(); ok != 1 {
		t.Errorf("route merge ok count = %d, want 1", ok)
	}

	// Deterministic shard-side validation failures pass through with the
	// shards' own status, not a 502.
	resp = mustPost(t, tc.gwTS.URL+"/v1/route", []byte(`{"points":[]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty route = %s, want 400 passthrough", resp.Status)
	}
	if pass := tc.gw.geomerge.routePass.Value(); pass != 1 {
		t.Errorf("route passthrough count = %d, want 1", pass)
	}
	// So do bytes after the request object, which every shard refuses.
	resp = mustPost(t, tc.gwTS.URL+"/v1/route", append(body, " trailing garbage"...))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("route with trailing bytes = %s, want 400 passthrough", resp.Status)
	}
}
