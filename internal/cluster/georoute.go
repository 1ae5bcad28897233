package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// Gateway-side availability and route planning (DESIGN.md §15).
// Placement is by place, so every verdict for a point is its cell
// owner's: an availability query forwards to that one shard. A route's
// cells spread over the ring, so the gateway samples the route itself
// and asks only the distinct owners of its cells — one owner forwards,
// several merge.
//
// The merge leans on determinism: every owner samples the route with the
// same geoindex.SampleRoute over the same body, so all legs return
// byte-identical segment *geometry* and the merge is a per-segment union
// of channel verdicts. A cell's evidence lives on its owner alone; the
// other legs answer "no entry" there, so the union is a disjoint
// assembly, not a conflict resolution — when replication anomalies do
// produce two entries for one key, the one backed by more readings wins.

// geoMergeState carries the gateway's route telemetry.
type geoMergeState struct {
	routeForwarded *telemetry.Counter
	routeOK        *telemetry.Counter
	routePass      *telemetry.Counter
	routeMismatch  *telemetry.Counter
	routeErrors    *telemetry.Counter
}

func newGeoMergeState(m *telemetry.Registry) geoMergeState {
	const help = "Gateway route queries by outcome (forwarded to the single owner, ok, passthrough of a shard's refusal, segment-geometry mismatch, error)."
	outcome := func(o string) *telemetry.Counter {
		return m.Counter("waldo_cluster_route_merge_total", help, "outcome", o)
	}
	return geoMergeState{
		routeForwarded: outcome("forwarded"),
		routeOK:        outcome("ok"),
		routePass:      outcome("passthrough"),
		routeMismatch:  outcome("mismatch"),
		routeErrors:    outcome("error"),
	}
}

// fanoutTo sends the request to the named shards in parallel and
// collects the legs in the given order, each with the same per-shard
// failover as single-key routing.
func (g *Gateway) fanoutTo(r *http.Request, body []byte, ids []string) []FanoutResult {
	results := make([]FanoutResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			results[i] = g.tryShard(r, sh, body)
		}(i, g.shards[id])
	}
	wg.Wait()
	return results
}

// handleAvailability serves GET /v1/availability at the gateway by
// forwarding it, filtered or not, to the owner of the point's cell. A
// point the shard will refuse goes to cell (0,0)'s owner, whose 400 is
// the answer.
func (g *Gateway) handleAvailability(w http.ResponseWriter, r *http.Request) {
	var key RouteKey
	q := r.URL.Query()
	lat, errLat := strconv.ParseFloat(q.Get("lat"), 64)
	lon, errLon := strconv.ParseFloat(q.Get("lon"), 64)
	if p := (geo.Point{Lat: lat, Lon: lon}); errLat == nil && errLon == nil && p.Valid() {
		key.Cell = CellOf(p, g.cfg.CellDeg)
	}
	g.forward(w, r, g.shardFor(key), nil)
}

// unionEntries merges two verdict lists keyed by (channel, sensor).
// Ownership makes keys disjoint in the healthy case; on a collision the
// entry backed by more readings (then higher confidence) wins.
func unionEntries(a, b []dbserver.AvailabilityEntryJSON) []dbserver.AvailabilityEntryJSON {
	if len(b) == 0 {
		return a
	}
	type key struct{ ch, kind int }
	m := make(map[key]dbserver.AvailabilityEntryJSON, len(a)+len(b))
	for _, e := range a {
		m[key{e.Channel, e.Sensor}] = e
	}
	for _, e := range b {
		k := key{e.Channel, e.Sensor}
		cur, ok := m[k]
		if !ok || e.Readings > cur.Readings ||
			(e.Readings == cur.Readings && e.Confidence > cur.Confidence) {
			m[k] = e
		}
	}
	out := make([]dbserver.AvailabilityEntryJSON, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	return out
}

func sortEntries(entries []dbserver.AvailabilityEntryJSON) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Channel != entries[j].Channel {
			return entries[i].Channel < entries[j].Channel
		}
		return entries[i].Sensor < entries[j].Sensor
	})
}

// routeOwners names, sorted, the distinct owners of the cells
// geoindex.SampleRoute puts a route body through at the gateway's
// quantum. It is nil for a body a shard refuses before sampling: not a
// route object, no waypoint, more than MaxRoutePoints, an invalid one,
// more than MaxRouteSamples samples.
func (g *Gateway) routeOwners(body []byte) []string {
	var req dbserver.RouteRequestJSON
	if json.Unmarshal(body, &req) != nil || len(req.Points) == 0 || len(req.Points) > geoindex.MaxRoutePoints {
		return nil
	}
	points := make([]geo.Point, len(req.Points))
	for i, rp := range req.Points {
		if points[i] = (geo.Point{Lat: rp.Lat, Lon: rp.Lon}); !points[i].Valid() {
			return nil
		}
	}
	if geoindex.SampleCount(points, req.StepM) > geoindex.MaxRouteSamples {
		return nil
	}
	var owners []string
	for _, seg := range geoindex.SampleRoute(points, req.StepM, g.cfg.CellDeg) {
		if id := g.ring.Owner(RouteKey{Cell: seg.Cell}); !slices.Contains(owners, id) {
			owners = append(owners, id)
		}
	}
	sort.Strings(owners)
	return owners
}

// handleRoute serves POST /v1/route at the gateway: the route goes to
// the owners of its cells only — one owner's answer is forwarded
// byte-identical, several are merged per segment. Shard-side validation
// is deterministic, so a body the gateway cannot sample goes to cell
// (0,0)'s owner, and a refusal uniform across the legs passes through,
// as the shards' own verdict instead of a gateway fault.
func (g *Gateway) handleRoute(w http.ResponseWriter, r *http.Request) {
	bp, ok := g.readBody(w, r)
	if !ok {
		return
	}
	defer putBody(bp)
	body := *bp
	owners := g.routeOwners(body)
	switch len(owners) {
	case 0:
		g.geomerge.routePass.Inc()
		g.forward(w, r, g.shardFor(RouteKey{}), body)
		return
	case 1:
		g.geomerge.routeForwarded.Inc()
		g.forward(w, r, g.shards[owners[0]], body)
		return
	}
	results := g.fanoutTo(r, body, owners)

	okLegs := results[:0:0]
	uniform := 0
	for _, res := range results {
		if res.Status == http.StatusOK {
			okLegs = append(okLegs, res)
		} else if uniform == 0 || uniform == res.Status {
			uniform = res.Status
		} else {
			uniform = -1
		}
	}
	if len(okLegs) == 0 {
		if uniform > 0 {
			// Every owner refused identically (deterministic validation):
			// hand the client the shards' own verdict.
			g.geomerge.routePass.Inc()
			w.Header().Set(ClusterVersionHeader, g.version)
			writeLegBody(w, uniform, results[0])
			return
		}
		g.geomerge.routeErrors.Inc()
		g.lg.Warn(r.Context(), "route_fanout_failed", "legs", len(results))
		http.Error(w, "route fan-out failed on every shard", http.StatusBadGateway)
		return
	}
	if len(okLegs) < len(results) {
		// A route answer missing an owner would silently present its
		// cells as unknown — worse than failing, because "unknown" is a
		// valid verdict a planner may act on.
		g.geomerge.routeErrors.Inc()
		g.lg.Warn(r.Context(), "route_fanout_partial", "ok", len(okLegs), "legs", len(results))
		http.Error(w, fmt.Sprintf("route fan-out failed on %d of %d shards",
			len(results)-len(okLegs), len(results)), http.StatusBadGateway)
		return
	}

	merged, err := mergeRoutes(okLegs)
	if err != nil {
		g.geomerge.routeMismatch.Inc()
		g.lg.Error(r.Context(), "route_merge_mismatch", "err", err)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	g.geomerge.routeOK.Inc()
	w.Header().Set(ClusterVersionHeader, g.version)
	w.Header().Set(ShardHeader, splitShardList(results))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(merged) //nolint:errcheck // client went away
}

// writeLegBody relays one leg's buffered response body: JSON as JSON,
// anything else (a shard's plain-text error) as text.
func writeLegBody(w http.ResponseWriter, status int, leg FanoutResult) {
	if len(leg.Body) > 0 && !json.Valid(leg.Body) {
		http.Error(w, strings.TrimRight(string(leg.Body), "\n"), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(leg.Body) //nolint:errcheck // client went away
}

// mergeRoutes unions per-owner route answers segment by segment. Every
// leg sampled the same body with the same quantum, so segment counts
// and cells must agree; a disagreement means the shards' routing
// configuration has drifted from the gateway's and the answer cannot be
// trusted.
func mergeRoutes(legs []FanoutResult) (dbserver.RouteJSON, error) {
	var merged dbserver.RouteJSON
	for i, res := range legs {
		var route dbserver.RouteJSON
		if err := json.Unmarshal(res.Body, &route); err != nil {
			return merged, fmt.Errorf("shard %s: %v", res.Shard, err)
		}
		if i == 0 {
			merged = route
			continue
		}
		if len(route.Segments) != len(merged.Segments) {
			return merged, fmt.Errorf("shard %s sampled %d segments, expected %d (cell quantum drift?)",
				res.Shard, len(route.Segments), len(merged.Segments))
		}
		if route.Generation > merged.Generation {
			merged.Generation = route.Generation
		}
		for j := range merged.Segments {
			a, b := &merged.Segments[j], route.Segments[j]
			if a.CellX != b.CellX || a.CellY != b.CellY {
				return merged, fmt.Errorf("shard %s segment %d crosses cell (%d,%d), expected (%d,%d)",
					res.Shard, j, b.CellX, b.CellY, a.CellX, a.CellY)
			}
			a.Channels = unionEntries(a.Channels, b.Channels)
		}
	}
	for j := range merged.Segments {
		sortEntries(merged.Segments[j].Channels)
	}
	return merged, nil
}
