package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
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
func (tc *testCluster) westLocations(t testing.TB, ch rfenv.Channel) map[string]geo.Point {
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
func seedGeoCluster(t testing.TB, tc *testCluster, ch rfenv.Channel) (free, occupied map[string]geo.Point) {
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

// TestGatewayAvailability: placement is by place, so a point's
// availability comes from its cell's owner alone, filtered or not.
func TestGatewayAvailability(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, occupied := seedGeoCluster(t, tc, 47)

	for id, loc := range free {
		owner := tc.gw.Ring().Owner(RouteKey{Channel: 47, Cell: CellOf(loc, tc.cellDeg)})
		if owner != id {
			t.Fatalf("free cell of %s is owned by %s", id, owner)
		}
		url := fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon)
		for _, filter := range []string{"", "&channels=47"} {
			resp, err := http.Get(url + filter)
			if err != nil {
				t.Fatal(err)
			}
			var av dbserver.AvailabilityJSON
			if err := json.NewDecoder(resp.Body).Decode(&av); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("availability%s at %s's cell = %s", filter, id, resp.Status)
			}
			if got := resp.Header.Get(ShardHeader); got != owner {
				t.Errorf("availability%s served by %q, want owner %q", filter, got, owner)
			}
			if e, ok := entryFor(av.Channels, 47); !ok || e.Status != "free" {
				t.Errorf("availability%s at %s: entry=%+v ok=%v, want ch47 free", filter, id, e, ok)
			}
			if av.Generation == 0 {
				t.Errorf("generation 0 after rebuilds landed")
			}
		}
	}
	// One occupied-cell spot check.
	loc := occupied["s0"]
	body := mustGetBody(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon), http.StatusOK)
	var av dbserver.AvailabilityJSON
	if err := json.Unmarshal(body, &av); err != nil {
		t.Fatal(err)
	}
	if e, ok := entryFor(av.Channels, 47); !ok || e.Status != "occupied" {
		t.Errorf("occupied cell: entry=%+v ok=%v, want ch47 occupied", e, ok)
	}

	// A query the shard refuses is refused through the gateway too.
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

// shardPlaceQueries sums the place queries the shards answered
// themselves (their waldo_geoindex_queries_total).
func (tc *testCluster) shardPlaceQueries() uint64 {
	var n uint64
	for _, node := range tc.nodes {
		for _, l := range [][2]string{{"availability", "ok"}, {"availability", "empty"}, {"route", "ok"}, {"route", "empty"}, {"any", "bad_request"}} {
			n += node.DB.Metrics().Counter("waldo_geoindex_queries_total", "", "endpoint", l[0], "outcome", l[1]).Value()
		}
	}
	return n
}

// TestGatewayRouteMergeAcrossShards drives the acceptance route: a
// polyline visiting every shard's free cell, so the answer assembles
// verdicts owned by different shards — each segment read from its
// owner's grid replica, no shard answering a route itself.
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
	body := routeBody(t, locs...)

	asked := tc.shardPlaceQueries()
	resp := mustPost(t, tc.gwTS.URL+"/v1/route", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route = %s", resp.Status)
	}
	if got := resp.Header.Get(ShardHeader); got != "s0,s1,s2" {
		t.Errorf("route read the grids of %q, want s0,s1,s2", got)
	}
	var route dbserver.RouteJSON
	if err := json.NewDecoder(resp.Body).Decode(&route); err != nil {
		t.Fatal(err)
	}
	if len(route.Segments) < len(locs) || route.TotalM <= 0 || route.ConfidenceDecay != 1 {
		t.Fatalf("segments=%d total_m=%v decay=%v", len(route.Segments), route.TotalM, route.ConfidenceDecay)
	}

	// Every shard's free cell must appear in the answer with its own
	// verdict, and the verdict-bearing cells must span shards — proof the
	// answer crossed ownership boundaries.
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

	// Refusals are the gateway's own, in the shards' words: an empty
	// route, and bytes after the request object.
	for _, bad := range [][]byte{[]byte(`{"points":[]}`), append(body, " trailing garbage"...)} {
		resp := mustPost(t, tc.gwTS.URL+"/v1/route", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("route %.20q… = %s, want 400", bad, resp.Status)
		}
	}
	if n := tc.shardPlaceQueries() - asked; n != 0 {
		t.Errorf("shards answered %d place queries for the gateway, want 0", n)
	}
}

// routeBody encodes a route request through the given waypoints.
func routeBody(t testing.TB, pts ...geo.Point) []byte {
	t.Helper()
	req := dbserver.RouteRequestJSON{StepM: 500}
	for _, p := range pts {
		req.Points = append(req.Points, dbserver.RoutePointJSON{Lat: p.Lat, Lon: p.Lon})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// ownersOf names, sorted, the distinct owners of the cells a route body
// samples into.
func (tc *testCluster) ownersOf(t testing.TB, body []byte) []string {
	t.Helper()
	var req dbserver.RouteRequestJSON
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	pts := make([]geo.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = geo.Point{Lat: p.Lat, Lon: p.Lon}
	}
	var ids []string
	for _, seg := range geoindex.SampleRoute(pts, req.StepM, tc.cellDeg) {
		if id := tc.gw.Ring().Owner(RouteKey{Cell: seg.Cell}); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// placeRoutes builds, from seedGeoCluster's free cells, a route inside
// one cell (one owner) and a route from a free cell into a neighbouring
// cell another shard owns (two owners).
func (tc *testCluster) placeRoutes(t testing.TB, free map[string]geo.Point) (oneOwner, twoOwners []byte) {
	t.Helper()
	ids := make([]string, 0, len(free))
	for id := range free {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	loc := free[ids[0]]
	oneOwner = routeBody(t, loc, loc.Offset(45, 1500))
	d := tc.cellDeg
	for _, id := range ids {
		a := free[id]
		for _, step := range [][2]float64{{d, 0}, {0, d}, {-d, 0}, {0, -d}} {
			body := routeBody(t, a, geo.Point{Lat: a.Lat + step[0], Lon: a.Lon + step[1]})
			if len(tc.ownersOf(t, body)) == 2 {
				return oneOwner, body
			}
		}
	}
	t.Fatal("no free cell borders a cell another shard owns")
	return nil, nil
}

// TestGatewayAnswersAPlaceFromItsOwner: placement is by place, so a
// point's availability, filtered or not, is read from its cell owner's
// grid replica, and a route from the replicas of its cells' distinct
// owners, named in X-Waldo-Shard. A shard being followed costs one
// parked grid poll; beyond that no place query, answered or refused,
// takes a leg or reaches a shard's own place handlers.
func TestGatewayAnswersAPlaceFromItsOwner(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	oneOwner, twoOwners := tc.placeRoutes(t, free)
	legs := tc.legs()
	for _, loc := range free { // starts every shard's follower
		mustGetBody(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon), http.StatusOK)
	}
	// Each follower's first sync, then its parked poll.
	eventually(t, "every follower parked", func() bool { return tc.legs() == legs+2*uint64(len(tc.nodes)) })
	legs, asked := tc.legs(), tc.shardPlaceQueries()

	for id, loc := range free {
		for _, filter := range []string{"", "&channels=47", "&channels=46,47&sensor=1"} {
			resp, err := http.Get(fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v%s", tc.gwTS.URL, loc.Lat, loc.Lon, filter))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get(ShardHeader) != id {
				t.Errorf("availability%s in %s's cell = %s from %q", filter, id, resp.Status, resp.Header.Get(ShardHeader))
			}
		}
	}
	for _, body := range [][]byte{oneOwner, twoOwners} {
		resp := mustPost(t, tc.gwTS.URL+"/v1/route", body)
		resp.Body.Close()
		if want := strings.Join(tc.ownersOf(t, body), ","); resp.StatusCode != http.StatusOK || resp.Header.Get(ShardHeader) != want {
			t.Errorf("route = %s from %q, want 200 from %q", resp.Status, resp.Header.Get(ShardHeader), want)
		}
	}
	tooLong := make([]geo.Point, geoindex.MaxRoutePoints+1)
	for i := range tooLong {
		tooLong[i] = free["s0"]
	}
	for _, body := range [][]byte{[]byte(`{"points":[]}`), routeBody(t, tooLong...)} {
		resp := mustPost(t, tc.gwTS.URL+"/v1/route", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(ShardHeader) != "" {
			t.Errorf("refused route = %s from %q, want the gateway's own 400", resp.Status, resp.Header.Get(ShardHeader))
		}
	}
	if n := tc.legs() - legs; n != 0 {
		t.Errorf("place queries took %d legs, want 0", n)
	}
	if n := tc.shardPlaceQueries() - asked; n != 0 {
		t.Errorf("shards answered %d place queries for the gateway, want 0", n)
	}
}

// fetch GETs or (with a body) POSTs url and returns status and body.
func fetch(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestGatewayPlaceAnswersMatchOwner: one Places implementation answers
// at the shard and at the gateway, so for every seeded cell (and one
// nobody surveyed) under every filter the gateway's body is the owning
// shard's, byte for byte; a route with one owner is that owner's answer,
// and one with two or three owners is each owner's answer segment by
// segment, at the newest of their generations.
func TestGatewayPlaceAnswersMatchOwner(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, occupied := seedGeoCluster(t, tc, 47)
	owner := func(p geo.Point) string { return tc.gw.Ring().Owner(RouteKey{Cell: CellOf(p, tc.cellDeg)}) }
	var places []geo.Point
	for id := range free {
		places = append(places, free[id], occupied[id])
	}
	places = append(places, rfenv.MetroCenter.Offset(0, 40000))
	for _, p := range places {
		for _, filter := range []string{"", "&channels=47", "&channels=46", "&sensor=1", "&sensor=2"} {
			q := fmt.Sprintf("/v1/availability?lat=%v&lon=%v%s", p.Lat, p.Lon, filter)
			viaStatus, via := fetch(t, tc.gwTS.URL+q, nil)
			status, direct := fetch(t, tc.nodeTS[owner(p)].URL+q, nil)
			if viaStatus != http.StatusOK || status != http.StatusOK || !bytes.Equal(via, direct) {
				t.Errorf("%s: gateway %d %s, owner %s %d %s", q, viaStatus, via, owner(p), status, direct)
			}
		}
	}

	oneOwner, twoOwners := tc.placeRoutes(t, free)
	var byLon []geo.Point
	for _, loc := range free {
		byLon = append(byLon, loc)
	}
	sort.Slice(byLon, func(i, j int) bool { return byLon[i].Lon < byLon[j].Lon })
	for want, body := range map[int][]byte{1: oneOwner, 2: twoOwners, 3: routeBody(t, byLon...)} {
		ids := tc.ownersOf(t, body)
		if len(ids) != want {
			t.Fatalf("route meant for %d owners has %v", want, ids)
		}
		status, via := fetch(t, tc.gwTS.URL+"/v1/route", body)
		if status != http.StatusOK {
			t.Fatalf("%d-owner route = %d %s", want, status, via)
		}
		if want == 1 {
			if _, direct := fetch(t, tc.nodeTS[ids[0]].URL+"/v1/route", body); !bytes.Equal(via, direct) {
				t.Errorf("one-owner route: gateway %s, owner %s %s", via, ids[0], direct)
			}
			continue
		}
		var got dbserver.RouteJSON
		if err := json.Unmarshal(via, &got); err != nil {
			t.Fatal(err)
		}
		byOwner := map[string]dbserver.RouteJSON{}
		var newest uint64
		for _, id := range ids {
			var r dbserver.RouteJSON
			if _, b := fetch(t, tc.nodeTS[id].URL+"/v1/route", body); json.Unmarshal(b, &r) != nil {
				t.Fatalf("owner %s answered %s", id, b)
			}
			byOwner[id], newest = r, max(newest, r.Generation)
		}
		ref := byOwner[ids[0]]
		if got.Generation != newest || got.CellDeg != ref.CellDeg || got.TotalM != ref.TotalM ||
			got.ConfidenceDecay != ref.ConfidenceDecay || len(got.Segments) != len(ref.Segments) {
			t.Fatalf("%d-owner route: gateway %+v, owners' generation %d, %s's %+v", want, got, newest, ids[0], ref)
		}
		for i, seg := range got.Segments {
			id := tc.gw.Ring().Owner(RouteKey{Cell: Cell{X: seg.CellX, Y: seg.CellY}})
			if !reflect.DeepEqual(seg, byOwner[id].Segments[i]) {
				t.Errorf("%d-owner route segment %d: gateway %+v, owner %s %+v", want, i, seg, id, byOwner[id].Segments[i])
			}
		}
	}
}

// TestGatewayPlaceRefusalParity: every place query a shard refuses, the
// gateway refuses with the same status and the same bytes — the shard's
// 4 MiB body cap included, not the gateway's 8 MiB.
func TestGatewayPlaceRefusalParity(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	at := func(p geo.Point) string { return fmt.Sprintf("lat=%v&lon=%v", p.Lat, p.Lon) }
	c := rfenv.MetroCenter
	for _, q := range []string{"", "lat=x&lon=0", "lat=1", "lat=91&lon=0", "lat=0&lon=181", "lat=NaN&lon=0",
		at(c) + "&channels=bogus", at(c) + "&channels=47,", at(c) + "&channels=99", at(c) + "&sensor=x"} {
		viaStatus, via := fetch(t, tc.gwTS.URL+"/v1/availability?"+q, nil)
		status, direct := fetch(t, tc.nodeTS["s0"].URL+"/v1/availability?"+q, nil)
		if viaStatus != status || status/100 != 4 || !bytes.Equal(via, direct) {
			t.Errorf("availability?%s: gateway %d %q, shard %d %q", q, viaStatus, via, status, direct)
		}
	}
	good := routeBody(t, c, c.Offset(90, 3000))
	tooLong := make([]geo.Point, geoindex.MaxRoutePoints+1)
	for i := range tooLong {
		tooLong[i] = c
	}
	for name, body := range map[string][]byte{
		"not JSON":          []byte("route"),
		"trailing bytes":    append(good[:len(good):len(good)], " {}"...),
		"no waypoint":       []byte(`{"points":[]}`),
		"too many points":   routeBody(t, tooLong...),
		"invalid waypoint":  []byte(`{"points":[{"lat":0,"lon":0},{"lat":91,"lon":0}]}`),
		"negative horizon":  []byte(`{"points":[{"lat":33.6,"lon":-84.5}],"horizon_s":-1}`),
		"too many samples":  []byte(`{"points":[{"lat":0,"lon":0},{"lat":40,"lon":100}],"step_m":10}`),
		"channel off band":  []byte(`{"points":[{"lat":33.6,"lon":-84.5}],"channels":[99]}`),
		"over the body cap": append(append([]byte(`{"points":[`), bytes.Repeat([]byte(" "), dbserver.DefaultMaxBodyBytes)...), "]}"...),
	} {
		viaStatus, via := fetch(t, tc.gwTS.URL+"/v1/route", body)
		status, direct := fetch(t, tc.nodeTS["s0"].URL+"/v1/route", body)
		if viaStatus != status || status/100 != 4 || !bytes.Equal(via, direct) {
			t.Errorf("%s: gateway %d %q, shard %d %q", name, viaStatus, via, status, direct)
		}
		if name == "over the body cap" && status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s = %d, want 413", name, status)
		}
	}
}

// gatewayOver is a gateway over specs, closed at cleanup.
func gatewayOver(t testing.TB, rt http.RoundTripper, specs ...ShardSpec) *Gateway {
	t.Helper()
	cfg := GatewayConfig{Shards: specs}
	if rt != nil {
		cfg.HTTPClient = &http.Client{Transport: rt}
	}
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

// kill makes a test shard's endpoint a dead process's: its listener and
// every connection closed, nothing answered.
func kill(ts *httptest.Server) {
	ts.Listener.Close()
	ts.CloseClientConnections()
}

// TestGridFollowerKilledShard502: once a shard's process dies, its
// cells answer 502 — at the latest the shard's horizon plus legTimeout
// after, the bound for a silent partition; a closed connection is
// noticed at once.
func TestGridFollowerKilledShard502(t *testing.T) {
	n, ts := newTestNode(t, "s0", nil)
	loc := cellCenter(rfenv.MetroCenter, DefaultCellDeg)
	if err := n.DB.Bootstrap(fieldAt(400, 47, loc, -100)); err != nil {
		t.Fatal(err)
	}
	gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{ts.URL}})
	q := fmt.Sprintf("/v1/availability?lat=%v&lon=%v", loc.Lat, loc.Lon)
	if rec := serveGateway(context.Background(), gw, http.MethodGet, q, nil); rec.Code != http.StatusOK {
		t.Fatalf("availability = %d %s", rec.Code, rec.Body)
	}
	killed := time.Now()
	kill(ts)
	eventually(t, "the dead shard's cell answers 502", func() bool {
		return serveGateway(context.Background(), gw, http.MethodGet, q, nil).Code == http.StatusBadGateway
	})
	if d, bound := time.Since(killed), 55*time.Second+legTimeout; d > bound {
		t.Errorf("502 came %v after the kill, past the %v bound", d, bound)
	}
}

// TestGridFollowerFailsOverToReplica: when a shard's primary dies, its
// follower fails over to the replica endpoint as a leg does, resyncs
// from it, and goes on following it.
func TestGridFollowerFailsOverToReplica(t *testing.T) {
	replica, replicaTS := newTestNode(t, "s0r", nil)
	primary, primaryTS := newTestNode(t, "s0", []string{replicaTS.URL})
	gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{primaryTS.URL, replicaTS.URL}})
	loc := cellCenter(rfenv.MetroCenter, DefaultCellDeg)
	q := fmt.Sprintf("/v1/availability?lat=%v&lon=%v", loc.Lat, loc.Lon)
	via := func() *httptest.ResponseRecorder {
		return serveGateway(context.Background(), gw, http.MethodGet, q, nil)
	}
	retrain := func() {
		t.Helper()
		if rec := serveGateway(context.Background(), gw, http.MethodPost, "/v1/retrain?channel=47&sensor=1", nil); rec.Code != http.StatusOK {
			t.Fatalf("retrain = %d %s", rec.Code, rec.Body)
		}
	}
	if rec := serveGateway(context.Background(), gw, http.MethodPost, "/v1/readings", uploadBody(t, fieldAt(400, 47, loc, -100))); rec.Code != http.StatusNoContent {
		t.Fatalf("upload = %d %s", rec.Code, rec.Body)
	}
	retrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := primary.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	eventually(t, "both grids built", func() bool {
		return primary.DB.GeoIndex().Snapshot().Generation > 0 && replica.DB.GeoIndex().Snapshot().Generation > 0
	})
	if rec := via(); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), mustGetBody(t, primaryTS.URL+q, http.StatusOK)) {
		t.Fatalf("before the kill the gateway answered %d %s, not the primary's answer", rec.Code, rec.Body)
	}

	kill(primaryTS)
	sh := gw.shards["s0"]
	eventually(t, "a sync from the replica", func() bool { return sh.grid.syncs.ok.Value() == 2 })
	if got := sh.currentURL(); got != replicaTS.URL || gw.Failovers() != 1 {
		t.Errorf("active endpoint %s after %d failovers, want the replica %s after 1", got, gw.Failovers(), replicaTS.URL)
	}
	// The replica takes the retrain the primary can no longer; its new
	// grid reaches the gateway.
	retrain()
	eventually(t, "the replica's new grid served", func() bool {
		rec := via()
		return replica.DB.GeoIndex().Snapshot().Generation > 1 && rec.Code == http.StatusOK &&
			bytes.Equal(rec.Body.Bytes(), mustGetBody(t, replicaTS.URL+q, http.StatusOK))
	})
}

// TestGridFollower404IsNotAFailover: a shard endpoint that answers
// /v1/grid 404 — a binary from before grids were served — leaves the
// shard's cells unavailable, and the endpoint where it is.
func TestGridFollower404IsNotAFailover(t *testing.T) {
	old := httptest.NewServer(http.NotFoundHandler())
	defer old.Close()
	_, cur := newTestNode(t, "s0", nil)
	gw := gatewayOver(t, nil, ShardSpec{ID: "s0", URLs: []string{old.URL, cur.URL}})
	q := "/v1/availability?lat=33.7&lon=-84.4"
	if rec := serveGateway(context.Background(), gw, http.MethodGet, q, nil); rec.Code != http.StatusBadGateway {
		t.Errorf("availability over a 404ing shard = %d %s, want 502", rec.Code, rec.Body)
	}
	sh := gw.shards["s0"]
	eventually(t, "three refused syncs", func() bool { return sh.grid.syncs.refused.Value() >= 3 })
	if gw.Failovers() != 0 || sh.currentURL() != old.URL || sh.grid.syncs.ok.Value() != 0 {
		t.Errorf("after 404s: %d failovers, active %s, %d good syncs; want 0, %s, 0",
			gw.Failovers(), sh.currentURL(), sh.grid.syncs.ok.Value(), old.URL)
	}
}

// TestGridFollowersStopAtClose: place queries are still answered in the
// drain between BeginShutdown and Close; Close returns with no follower
// left, and a place query after it is a 502, not a new follower.
func TestGridFollowersStopAtClose(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	for _, loc := range free {
		mustGetBody(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon), http.StatusOK)
	}
	tc.gw.BeginShutdown()
	for _, loc := range free {
		mustGetBody(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon), http.StatusOK)
	}
	tc.gw.Close()
	following := func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("cluster.(*Gateway).follow("))
	}
	eventually(t, "no follower goroutine after Close", func() bool { return !following() })
	loc := free["s0"]
	mustGetBody(t, fmt.Sprintf("%s/v1/availability?lat=%v&lon=%v", tc.gwTS.URL, loc.Lat, loc.Lon), http.StatusBadGateway)
	if following() {
		t.Error("a place query after Close started a follower")
	}
}

// TestGridFollowerNeedsAPlaceQuery: a gateway that is asked no place
// sends no shard a /v1/grid request, whatever else it serves.
func TestGridFollowerNeedsAPlaceQuery(t *testing.T) {
	var polls atomic.Int64
	var specs []ShardSpec
	for _, id := range []string{"s0", "s1", "s2"} {
		n, _ := newTestNode(t, id, nil)
		h := n.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == gridPath {
				polls.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		specs = append(specs, ShardSpec{ID: id, URLs: []string{ts.URL}})
	}
	gw := gatewayOver(t, nil, specs...)
	tc := &testCluster{gw: gw, nodes: map[string]*Node{"s0": nil, "s1": nil, "s2": nil}, cellDeg: DefaultCellDeg}
	var rs []dataset.Reading
	for _, loc := range tc.locations(t, 47) {
		rs = append(rs, fieldAt(200, 47, loc, -100)...)
	}
	loc := rs[0].Loc
	hint := fmt.Sprintf("&lat=%v&lon=%v", loc.Lat, loc.Lon)
	for _, tt := range []struct {
		method, target string
		body           []byte
	}{
		{http.MethodPost, "/v1/readings", uploadBody(t, rs)},
		{http.MethodPost, "/v1/retrain?channel=47&sensor=1", nil},
		{http.MethodGet, "/v1/model?channel=47&sensor=1" + hint, nil},
		{http.MethodGet, "/v1/export?channel=47&sensor=1" + hint, nil},
		{http.MethodGet, "/v1/stats", nil},
		{http.MethodGet, "/healthz", nil},
	} {
		if rec := serveGateway(context.Background(), gw, tt.method, tt.target, tt.body); rec.Code/100 != 2 {
			t.Fatalf("%s %s = %d %s", tt.method, tt.target, rec.Code, rec.Body)
		}
	}
	if n := polls.Load(); n != 0 {
		t.Errorf("shards saw %d grid polls from a gateway asked no place", n)
	}
	serveGateway(context.Background(), gw, http.MethodGet, "/v1/availability?lat=33.7&lon=-84.4", nil)
	if polls.Load() == 0 {
		t.Error("a place query polled no grid: the counter is blind")
	}
}

// scriptedShard answers a grid follower's n-th poll with script(n, req).
type scriptedShard struct {
	script func(poll int, req *http.Request) (*http.Response, error)

	mu    sync.Mutex
	polls int
}

func (s *scriptedShard) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	s.polls++
	n := s.polls
	s.mu.Unlock()
	return s.script(n, req)
}

// gridReply is a shard's 200 to a grid poll: the grid, its validator and
// a 250 ms horizon.
func gridReply(snap *geoindex.Snapshot, etag string) *http.Response {
	h := http.Header{}
	h.Set("ETag", etag)
	h.Set(dbserver.HorizonHeader, "250")
	return &http.Response{StatusCode: http.StatusOK, Header: h, Body: io.NopCloser(bytes.NewReader(geoindex.EncodeGrid(snap)))}
}

// TestGridStalenessBound: under a silent partition a replica is served
// until its follower's parked poll runs out of time — the shard's
// horizon plus legTimeout — and its cells answer 502 from then on. The
// shard here answers the first poll, then goes silent: it notes the
// conditional poll's deadline and, once released, fails the poll as
// that deadline expiring would; every later poll is refused.
func TestGridStalenessBound(t *testing.T) {
	grid := geoindex.New(geoindex.Config{}).Rebuild(context.Background())
	release, budget := make(chan struct{}), make(chan time.Duration, 1)
	shard := &scriptedShard{script: func(poll int, req *http.Request) (*http.Response, error) {
		switch poll {
		case 1:
			return gridReply(grid, `"g1"`), nil
		case 2:
			d, _ := req.Context().Deadline()
			budget <- time.Until(d)
			select {
			case <-release:
			case <-req.Context().Done():
			}
			return nil, os.ErrDeadlineExceeded
		}
		return nil, syscall.ECONNREFUSED
	}}
	gw := gatewayOver(t, shard, ShardSpec{ID: "s0", URLs: []string{"http://s0.partitioned"}})
	q := "/v1/availability?lat=33.7&lon=-84.4"
	if rec := serveGateway(context.Background(), gw, http.MethodGet, q, nil); rec.Code != http.StatusOK {
		t.Fatalf("availability = %d %s", rec.Code, rec.Body)
	}
	allowed := <-budget
	if rec := serveGateway(context.Background(), gw, http.MethodGet, q, nil); rec.Code != http.StatusOK {
		t.Errorf("availability while the poll is parked = %d %s, want the replica's 200", rec.Code, rec.Body)
	}
	close(release)
	eventually(t, "the partitioned shard's cells answer 502", func() bool {
		return serveGateway(context.Background(), gw, http.MethodGet, q, nil).Code == http.StatusBadGateway
	})
	if want := 250*time.Millisecond + legTimeout; allowed > want || allowed < want-time.Second {
		t.Errorf("the parked poll was allowed %v, want the 250 ms horizon plus the %v leg budget", allowed, legTimeout)
	}
}

// TestGridRefusedDropsReplica: a grid the gateway refuses — here one
// quantized at another cell size — is not kept, and neither is the one
// before it: the shard's cells answer 502, not from a grid the shard no
// longer serves.
func TestGridRefusedDropsReplica(t *testing.T) {
	good := geoindex.New(geoindex.Config{}).Rebuild(context.Background())
	foreign := geoindex.New(geoindex.Config{CellDeg: 0.1}).Rebuild(context.Background())
	shard := &scriptedShard{script: func(poll int, req *http.Request) (*http.Response, error) {
		switch poll {
		case 1:
			return gridReply(good, `"g1"`), nil
		case 2:
			return gridReply(foreign, `"g2"`), nil
		}
		<-req.Context().Done() // in sync: parked until the gateway closes
		return nil, req.Context().Err()
	}}
	gw := gatewayOver(t, shard, ShardSpec{ID: "s0", URLs: []string{"http://s0.scripted"}})
	q := "/v1/availability?lat=33.7&lon=-84.4"
	serveGateway(context.Background(), gw, http.MethodGet, q, nil)
	eventually(t, "the refused grid polled", func() bool { return gw.shards["s0"].grid.syncs.refused.Value() == 1 })
	if rec := serveGateway(context.Background(), gw, http.MethodGet, q, nil); rec.Code != http.StatusBadGateway {
		t.Errorf("availability after a refused grid = %d %s, want 502", rec.Code, rec.Body)
	}
	if gw.Failovers() != 0 {
		t.Errorf("a refused grid failed the endpoint over %d times", gw.Failovers())
	}
}
