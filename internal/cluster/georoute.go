package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// Gateway-side availability and route planning (DESIGN.md §15): the
// spatiotemporal query surface crosses shard ownership by construction
// — one cell's channels hash to different shards, and a route's cells
// spread across the whole ring — so the gateway fans these reads out
// and merges.
//
// The merge leans on determinism: every shard samples a route request
// with the same geoindex.SampleRoute over the same body, so all legs
// return byte-identical segment *geometry* and the merge is a
// per-segment union of channel verdicts. For a (channel, cell) pair
// exactly one shard owns the evidence; the others answer "no entry",
// so the union is a disjoint assembly, not a conflict resolution —
// when replication anomalies do produce two entries for one key, the
// one backed by more readings wins.

// geoMergeState carries the gateway's availability/route merge
// telemetry.
type geoMergeState struct {
	availForwarded *telemetry.Counter
	availMerged    *telemetry.Counter
	availErrors    *telemetry.Counter
	routeOK        *telemetry.Counter
	routePass      *telemetry.Counter
	routeMismatch  *telemetry.Counter
	routeErrors    *telemetry.Counter
}

func newGeoMergeState(m *telemetry.Registry) geoMergeState {
	const availHelp = "Gateway availability queries by outcome (forwarded to the single owner, merged across shards, error)."
	const routeHelp = "Gateway route queries by outcome (ok, passthrough of a uniform shard status, segment-geometry mismatch, error)."
	return geoMergeState{
		availForwarded: m.Counter("waldo_cluster_availability_merge_total", availHelp, "outcome", "forwarded"),
		availMerged:    m.Counter("waldo_cluster_availability_merge_total", availHelp, "outcome", "merged"),
		availErrors:    m.Counter("waldo_cluster_availability_merge_total", availHelp, "outcome", "error"),
		routeOK:        m.Counter("waldo_cluster_route_merge_total", routeHelp, "outcome", "ok"),
		routePass:      m.Counter("waldo_cluster_route_merge_total", routeHelp, "outcome", "passthrough"),
		routeMismatch:  m.Counter("waldo_cluster_route_merge_total", routeHelp, "outcome", "mismatch"),
		routeErrors:    m.Counter("waldo_cluster_route_merge_total", routeHelp, "outcome", "error"),
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

// handleAvailability serves GET /v1/availability at the gateway. With a
// channels filter whose (channel, cell) keys all hash to one shard the
// request forwards untouched (the common WSD case: "my channels,
// here"); otherwise it fans out to the owning shards — all shards when
// unfiltered, since a cell's channels spread across the ring — and
// merges the per-channel verdicts.
func (g *Gateway) handleAvailability(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lat, errLat := strconv.ParseFloat(q.Get("lat"), 64)
	lon, errLon := strconv.ParseFloat(q.Get("lon"), 64)
	if errLat != nil || errLon != nil {
		http.Error(w, "lat and lon are required numbers", http.StatusBadRequest)
		return
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		http.Error(w, fmt.Sprintf("invalid location %v", p), http.StatusBadRequest)
		return
	}
	cell := CellOf(p, g.cfg.CellDeg)
	var targets []string
	if arg := q.Get("channels"); arg != "" {
		owners := map[string]bool{}
		for _, part := range strings.Split(arg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || !rfenv.Channel(n).Valid() {
				http.Error(w, fmt.Sprintf("bad channel %q", part), http.StatusBadRequest)
				return
			}
			owners[g.ring.Owner(RouteKey{Channel: rfenv.Channel(n), Cell: cell})] = true
		}
		for id := range owners {
			targets = append(targets, id)
		}
		sort.Strings(targets)
	} else {
		targets = g.ring.Nodes()
	}
	if len(targets) == 1 {
		g.geomerge.availForwarded.Inc()
		g.forward(w, r, g.shards[targets[0]], nil)
		return
	}

	results := g.fanoutTo(r, nil, targets)
	merged, err := mergeAvailability(results)
	if err != nil {
		g.geomerge.availErrors.Inc()
		g.lg.Warn(r.Context(), "availability_merge_failed", "err", err)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	g.geomerge.availMerged.Inc()
	w.Header().Set(ClusterVersionHeader, g.version)
	w.Header().Set(ShardHeader, strings.Join(targets, ","))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(merged) //nolint:errcheck // client went away
}

// mergeAvailability unions per-shard cell verdicts. Generation reports
// the highest contributing shard grid generation (generations are
// per-shard counters; the max is "the freshest evidence consulted").
func mergeAvailability(results []FanoutResult) (dbserver.AvailabilityJSON, error) {
	var merged dbserver.AvailabilityJSON
	for i, res := range results {
		if res.Status != http.StatusOK {
			return merged, fmt.Errorf("shard %s: status %d %s", res.Shard, res.Status, res.Error)
		}
		var av dbserver.AvailabilityJSON
		if err := json.Unmarshal(res.Body, &av); err != nil {
			return merged, fmt.Errorf("shard %s: %v", res.Shard, err)
		}
		if i == 0 {
			merged = av
			continue
		}
		if av.Generation > merged.Generation {
			merged.Generation = av.Generation
		}
		merged.Channels = unionEntries(merged.Channels, av.Channels)
	}
	sortEntries(merged.Channels)
	return merged, nil
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

// handleRoute serves POST /v1/route at the gateway: broadcast the body
// to every shard (a route's cells spread across the whole ring) and
// merge the per-segment verdicts. Shard-side validation is
// deterministic, so a malformed request fails identically everywhere
// and the uniform status passes through instead of masquerading as a
// gateway fault.
func (g *Gateway) handleRoute(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	results := g.fanoutTo(r, body, g.ring.Nodes())

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
			// Every shard rejected identically (deterministic validation):
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
		// A route answer missing shards would silently present owned
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

// mergeRoutes unions per-shard route answers segment by segment. Every
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
