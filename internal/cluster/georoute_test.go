package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
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

// TestGatewayRouteMergeAcrossShards drives the acceptance route: a
// polyline visiting every shard's free cell, so the answer necessarily
// assembles verdicts owned by different shards — one leg per owner.
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

	legs := tc.legs()
	resp := mustPost(t, tc.gwTS.URL+"/v1/route", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route = %s", resp.Status)
	}
	if got := len(strings.Split(resp.Header.Get(ShardHeader), ",")); got != len(tc.nodes) {
		t.Errorf("route consulted %d shards, want %d", got, len(tc.nodes))
	}
	if n := tc.legs() - legs; n != 3 {
		t.Errorf("route took %d legs, want 3", n)
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

	// Deterministic shard-side validation failures pass through with one
	// shard's own status, not a 502.
	legs = tc.legs()
	resp = mustPost(t, tc.gwTS.URL+"/v1/route", []byte(`{"points":[]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty route = %s, want 400 passthrough", resp.Status)
	}
	// So do bytes after the request object, which every shard refuses.
	resp = mustPost(t, tc.gwTS.URL+"/v1/route", append(body, " trailing garbage"...))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("route with trailing bytes = %s, want 400 passthrough", resp.Status)
	}
	if pass := tc.gw.geomerge.routePass.Value(); pass != 2 {
		t.Errorf("route passthrough count = %d, want 2", pass)
	}
	if n := tc.legs() - legs; n != 2 {
		t.Errorf("two refused routes took %d legs, want 1 each", n)
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
			if len(tc.gw.routeOwners(body)) == 2 {
				return oneOwner, body
			}
		}
	}
	t.Fatal("no free cell borders a cell another shard owns")
	return nil, nil
}

// TestGatewayAnswersAPlaceFromItsOwner: placement is by place, so a
// point's availability, filtered or not, is one leg to its cell's owner
// and byte-identical to the owner's own answer; a route is one leg per
// distinct owner of its cells — one owner forwarded byte-identical, two
// merged — and a route the shards refuse is one leg whose 400 passes
// through. Legs are counted by waldo_cluster_requests_total.
func TestGatewayAnswersAPlaceFromItsOwner(t *testing.T) {
	tc := newTestCluster(t, []string{"s0", "s1", "s2"})
	free, _ := seedGeoCluster(t, tc, 47)
	owner := func(p geo.Point) string { return tc.gw.Ring().Owner(RouteKey{Cell: CellOf(p, tc.cellDeg)}) }
	post := func(url string, body []byte) (int, string, []byte) {
		t.Helper()
		resp := mustPost(t, url, body)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get(ShardHeader), b
	}

	for id, loc := range free {
		for _, filter := range []string{"", "&channels=47", "&channels=46,47&sensor=1"} {
			q := fmt.Sprintf("/v1/availability?lat=%v&lon=%v%s", loc.Lat, loc.Lon, filter)
			legs := tc.legs()
			via := mustGetBody(t, tc.gwTS.URL+q, http.StatusOK)
			if n := tc.legs() - legs; n != 1 {
				t.Errorf("%s: %d legs, want 1", q, n)
			}
			if direct := mustGetBody(t, tc.nodeTS[id].URL+q, http.StatusOK); !bytes.Equal(via, direct) {
				t.Errorf("%s: gateway answered %s, owner %s %s", q, via, id, direct)
			}
		}
	}

	oneOwner, twoOwners := tc.placeRoutes(t, free)
	legs := tc.legs()
	status, shard, via := post(tc.gwTS.URL+"/v1/route", oneOwner)
	if n := tc.legs() - legs; status != http.StatusOK || n != 1 {
		t.Fatalf("one-owner route = %d in %d legs, want 200 in 1", status, n)
	}
	if _, _, direct := post(tc.nodeTS[shard].URL+"/v1/route", oneOwner); shard != owner(free["s0"]) || !bytes.Equal(via, direct) {
		t.Errorf("one-owner route from %q: gateway %s, owner %s", shard, via, direct)
	}
	if n := tc.gw.geomerge.routeForwarded.Value(); n != 1 {
		t.Errorf("forwarded routes = %d, want 1", n)
	}

	legs = tc.legs()
	status, shard, via = post(tc.gwTS.URL+"/v1/route", twoOwners)
	if n := tc.legs() - legs; status != http.StatusOK || n != 2 || len(strings.Split(shard, ",")) != 2 {
		t.Fatalf("two-owner route = %d in %d legs from %q, want 200 in 2", status, n, shard)
	}
	var merged dbserver.RouteJSON
	if err := json.Unmarshal(via, &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Segments) != 2 || tc.gw.geomerge.routeOK.Value() != 1 {
		t.Fatalf("two-owner route: %d segments, %d merges; want 2 and 1", len(merged.Segments), tc.gw.geomerge.routeOK.Value())
	}
	// Each segment carries exactly its owner's verdicts, and the free
	// cell it starts in is free.
	for i, seg := range merged.Segments {
		id := tc.gw.Ring().Owner(RouteKey{Cell: Cell{X: seg.CellX, Y: seg.CellY}})
		_, _, b := post(tc.nodeTS[id].URL+"/v1/route", twoOwners)
		var direct dbserver.RouteJSON
		if err := json.Unmarshal(b, &direct); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seg, direct.Segments[i]) {
			t.Errorf("segment %d: merged %+v, owner %s %+v", i, seg, id, direct.Segments[i])
		}
	}
	if e, ok := entryFor(merged.Segments[0].Channels, 47); !ok || e.Status != "free" {
		t.Errorf("two-owner route's free cell: entry=%+v ok=%v", e, ok)
	}

	tooLong := make([]geo.Point, 257)
	for i := range tooLong {
		tooLong[i] = free["s0"]
	}
	for _, body := range [][]byte{[]byte(`{"points":[]}`), routeBody(t, tooLong...)} {
		legs := tc.legs()
		if status, _, _ := post(tc.gwTS.URL+"/v1/route", body); status != http.StatusBadRequest || tc.legs()-legs != 1 {
			t.Errorf("refused route = %d in %d legs, want one shard's 400", status, tc.legs()-legs)
		}
	}
}
