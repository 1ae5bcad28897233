package dbserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// The spatiotemporal query surface (GET /v1/availability, POST
// /v1/route): instead of downloading a model and evaluating it, a WSD —
// or a route planner — asks the precomputed grid directly. Reads are a
// snapshot load plus one map lookup per cell; the grid is rebuilt off
// the request path by storeJournal whenever any store retrains, and
// gateways replicate it through GET /v1/grid (gridexport.go; DESIGN.md
// §15).

// indexSource feeds a grid rebuild: every store's current model,
// version, and recency window, in deterministic store order.
func (s *Server) indexSource() []geoindex.StoreSnapshot {
	keys, byKey := s.storeSnapshot()
	out := make([]geoindex.StoreSnapshot, 0, len(keys))
	for _, k := range keys {
		model, version, recent := byKey[k].IndexSnapshot(geoindex.DefaultMaxRecent)
		if model == nil {
			continue
		}
		out = append(out, geoindex.StoreSnapshot{
			Channel: k.ch, Sensor: k.kind,
			Model: model, ModelVersion: version, Recent: recent,
		})
	}
	return out
}

// GeoIndex exposes the availability grid (tests rebuild or inspect it
// directly; the serving path never needs this).
func (s *Server) GeoIndex() *geoindex.Index { return s.geoidx }

// geoQueryState carries the availability query surface's telemetry.
type geoQueryState struct {
	availOK    *telemetry.Counter
	availEmpty *telemetry.Counter
	routeOK    *telemetry.Counter
	routeEmpty *telemetry.Counter
	badRequest *telemetry.Counter
	segments   *telemetry.Histogram
}

func newGeoQueryState(m *telemetry.Registry) geoQueryState {
	const help = "Availability grid queries by endpoint and outcome (ok, empty, bad_request)."
	return geoQueryState{
		availOK:    m.Counter("waldo_geoindex_queries_total", help, "endpoint", "availability", "outcome", "ok"),
		availEmpty: m.Counter("waldo_geoindex_queries_total", help, "endpoint", "availability", "outcome", "empty"),
		routeOK:    m.Counter("waldo_geoindex_queries_total", help, "endpoint", "route", "outcome", "ok"),
		routeEmpty: m.Counter("waldo_geoindex_queries_total", help, "endpoint", "route", "outcome", "empty"),
		badRequest: m.Counter("waldo_geoindex_queries_total", help, "endpoint", "any", "outcome", "bad_request"),
		segments: m.Histogram("waldo_geoindex_route_segments",
			"Cell segments per served route query.", nil),
	}
}

// AvailabilityEntryJSON is one channel's verdict in one cell, as served
// by GET /v1/availability and inside each route segment.
type AvailabilityEntryJSON struct {
	Channel      int     `json:"channel"`
	Sensor       int     `json:"sensor"`
	Status       string  `json:"status"`
	Confidence   float64 `json:"confidence"`
	Readings     int     `json:"readings"`
	ModelVersion int     `json:"model_version"`
}

// AvailabilityJSON is the GET /v1/availability response: the queried
// point's cell and every channel verdict the grid holds for it.
type AvailabilityJSON struct {
	Lat        float64                 `json:"lat"`
	Lon        float64                 `json:"lon"`
	CellX      int32                   `json:"cell_x"`
	CellY      int32                   `json:"cell_y"`
	CellDeg    float64                 `json:"cell_deg"`
	Generation uint64                  `json:"generation"`
	Channels   []AvailabilityEntryJSON `json:"channels"`
}

// RoutePointJSON is one polyline waypoint in a route request.
type RoutePointJSON struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// RouteRequestJSON is the POST /v1/route request body: a polyline, an
// optional validity horizon (seconds), an optional sampling step, and
// optional channel/sensor filters.
type RouteRequestJSON struct {
	Points []RoutePointJSON `json:"points"`
	// HorizonS asks "will this still hold in HorizonS seconds?" — every
	// confidence is discounted by exp(-horizon/τ) (geoindex.ConfidenceDecay).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// StepM is the trajectory sampling interval in meters; 0 means
	// geoindex.DefaultStepM.
	StepM float64 `json:"step_m,omitempty"`
	// Channels, when non-empty, restricts verdicts to these channels.
	Channels []int `json:"channels,omitempty"`
	// Sensor, when non-zero, restricts verdicts to one sensor family.
	Sensor int `json:"sensor,omitempty"`
}

// RouteSegmentJSON is one cell-constant stretch of the sampled route
// with the grid's verdicts for that cell.
type RouteSegmentJSON struct {
	CellX    int32                   `json:"cell_x"`
	CellY    int32                   `json:"cell_y"`
	FromLat  float64                 `json:"from_lat"`
	FromLon  float64                 `json:"from_lon"`
	ToLat    float64                 `json:"to_lat"`
	ToLon    float64                 `json:"to_lon"`
	EnterM   float64                 `json:"enter_m"`
	ExitM    float64                 `json:"exit_m"`
	Channels []AvailabilityEntryJSON `json:"channels"`
}

// RouteJSON is the POST /v1/route response.
type RouteJSON struct {
	CellDeg    float64 `json:"cell_deg"`
	Generation uint64  `json:"generation"`
	TotalM     float64 `json:"total_m"`
	HorizonS   float64 `json:"horizon_s"`
	// ConfidenceDecay is the multiplicative discount already applied to
	// every segment confidence for the requested horizon.
	ConfidenceDecay float64            `json:"confidence_decay"`
	Segments        []RouteSegmentJSON `json:"segments"`
}

// geoFilter narrows verdicts to requested channels/sensor.
type geoFilter struct {
	channels map[rfenv.Channel]bool // nil: all
	kind     sensor.Kind            // 0: all
}

func (f geoFilter) keep(e geoindex.ChannelAvailability) bool {
	if f.channels != nil && !f.channels[e.Channel] {
		return false
	}
	if f.kind != 0 && e.Sensor != f.kind {
		return false
	}
	return true
}

// parseChannelFilter parses a "46,47" CSV into a channel set (nil when
// the argument is empty).
func parseChannelFilter(arg string) (map[rfenv.Channel]bool, error) {
	if arg == "" {
		return nil, nil
	}
	set := make(map[rfenv.Channel]bool)
	for _, part := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad channel %q", part)
		}
		ch := rfenv.Channel(n)
		if !ch.Valid() {
			return nil, fmt.Errorf("channel %d outside TV band", n)
		}
		set[ch] = true
	}
	return set, nil
}

// entriesJSON converts a cell's verdicts through a filter, scaling
// confidence by decay.
func entriesJSON(entries []geoindex.ChannelAvailability, f geoFilter, decay float64) []AvailabilityEntryJSON {
	out := make([]AvailabilityEntryJSON, 0, len(entries))
	for _, e := range entries {
		if !f.keep(e) {
			continue
		}
		out = append(out, AvailabilityEntryJSON{
			Channel:      int(e.Channel),
			Sensor:       int(e.Sensor),
			Status:       e.Status.String(),
			Confidence:   e.Confidence * decay,
			Readings:     e.Readings,
			ModelVersion: e.ModelVersion,
		})
	}
	return out
}

// GridView names, for one place query, the grid snapshot holding a
// cell's verdicts, or why there is none (answered 502). A server's view
// is its own snapshot for every cell; a gateway's is the cell owner's
// replica (internal/cluster).
type GridView func(geoindex.Cell) (*geoindex.Snapshot, error)

// Places answers the place queries — GET /v1/availability and POST
// /v1/route — over a GridView. A server and a gateway answer through
// the same Places code, so a gateway's answer, refusals included, is
// byte-identical to the owning server's.
type Places struct {
	metrics *telemetry.Registry
	lg      *wlog.Logger
	maxBody int64
	geoq    geoQueryState
}

// NewPlaces returns the place-query surface, reporting to m and lg
// (either may be nil) and refusing route bodies over maxBody bytes
// (≤ 0: DefaultMaxBodyBytes, a server's default).
func NewPlaces(m *telemetry.Registry, lg *wlog.Logger, maxBody int64) *Places {
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	return &Places{metrics: m, lg: lg, maxBody: maxBody, geoq: newGeoQueryState(m)}
}

// refuse answers a malformed place query 400.
func (p *Places) refuse(w http.ResponseWriter, msg string) {
	p.geoq.badRequest.Inc()
	http.Error(w, msg, http.StatusBadRequest)
}

// Availability serves GET /v1/availability?lat=..&lon=..: the verdicts
// for the point's cell (cells of cellDeg degrees). A cell with no
// evidence answers 200 with an empty channels array — "unknown" is a
// valid availability answer, not an error.
func (p *Places) Availability(w http.ResponseWriter, r *http.Request, cellDeg float64, view GridView) {
	q := r.URL.Query()
	lat, errLat := strconv.ParseFloat(q.Get("lat"), 64)
	lon, errLon := strconv.ParseFloat(q.Get("lon"), 64)
	if errLat != nil || errLon != nil {
		p.refuse(w, "lat and lon are required numbers")
		return
	}
	pt := geo.Point{Lat: lat, Lon: lon}
	if !pt.Valid() {
		p.refuse(w, fmt.Sprintf("invalid location %v", pt))
		return
	}
	channels, err := parseChannelFilter(q.Get("channels"))
	if err != nil {
		p.refuse(w, err.Error())
		return
	}
	filter := geoFilter{channels: channels}
	if v := q.Get("sensor"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			p.refuse(w, "bad sensor "+strconv.Quote(v))
			return
		}
		filter.kind = sensor.Kind(n)
	}

	cell := geoindex.CellOf(pt, cellDeg)
	snap, err := view(cell)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	resp := AvailabilityJSON{
		Lat: lat, Lon: lon,
		CellX: cell.X, CellY: cell.Y,
		CellDeg:    snap.CellDeg,
		Generation: snap.Generation,
		Channels:   entriesJSON(snap.Lookup(cell), filter, 1),
	}
	if len(resp.Channels) == 0 {
		p.geoq.availEmpty.Inc()
	} else {
		p.geoq.availOK.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client went away
}

// Route serves POST /v1/route: sample the polyline onto cells of cellDeg
// degrees (geoindex.SampleRoute, deterministic) and answer each segment
// from its cell's snapshot; the generation reported is the newest among
// them.
func (p *Places) Route(w http.ResponseWriter, r *http.Request, cellDeg float64, view GridView) {
	var req RouteRequestJSON
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.maxBody))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		p.geoq.badRequest.Inc()
		http.Error(w, "bad route request: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if err == nil {
		err = json.Unmarshal(body, &req) // the whole body: bytes after the object are a 400
	}
	if err != nil {
		p.refuse(w, "bad route request: "+err.Error())
		return
	}
	if len(req.Points) == 0 {
		p.refuse(w, "route needs at least one waypoint")
		return
	}
	if len(req.Points) > geoindex.MaxRoutePoints {
		p.lg.Warn(r.Context(), "route_too_long", "points", len(req.Points))
		p.refuse(w, fmt.Sprintf("route has %d waypoints, max %d", len(req.Points), geoindex.MaxRoutePoints))
		return
	}
	points := make([]geo.Point, len(req.Points))
	for i, rp := range req.Points {
		points[i] = geo.Point{Lat: rp.Lat, Lon: rp.Lon}
		if !points[i].Valid() {
			p.refuse(w, fmt.Sprintf("waypoint %d: invalid location %v", i, points[i]))
			return
		}
	}
	if req.HorizonS < 0 || req.StepM < 0 {
		p.refuse(w, "horizon_s and step_m must be non-negative")
		return
	}
	stepM := req.StepM
	if stepM == 0 {
		stepM = geoindex.DefaultStepM
	}
	if n := geoindex.SampleCount(points, stepM); n > geoindex.MaxRouteSamples {
		p.lg.Warn(r.Context(), "route_too_dense", "samples", n, "step_m", stepM)
		p.refuse(w, fmt.Sprintf("route samples to %d points, max %d — shorten it or raise step_m",
			n, geoindex.MaxRouteSamples))
		return
	}
	channels := make(map[rfenv.Channel]bool)
	for _, n := range req.Channels {
		ch := rfenv.Channel(n)
		if !ch.Valid() {
			p.refuse(w, fmt.Sprintf("channel %d outside TV band", n))
			return
		}
		channels[ch] = true
	}
	filter := geoFilter{kind: sensor.Kind(req.Sensor)}
	if len(channels) > 0 {
		filter.channels = channels
	}

	span := p.metrics.StartSpanCtx(r.Context(), "route/sample")
	segs := geoindex.SampleRoute(points, stepM, cellDeg)
	span.End()

	decay := geoindex.ConfidenceDecay(req.HorizonS, 0)
	resp := RouteJSON{
		CellDeg:         cellDeg,
		HorizonS:        req.HorizonS,
		ConfidenceDecay: decay,
		Segments:        make([]RouteSegmentJSON, 0, len(segs)),
	}
	answered := 0
	for _, seg := range segs {
		snap, err := view(seg.Cell)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp.Generation = max(resp.Generation, snap.Generation)
		entries := entriesJSON(snap.Lookup(seg.Cell), filter, decay)
		if len(entries) > 0 {
			answered++
		}
		resp.Segments = append(resp.Segments, RouteSegmentJSON{
			CellX: seg.Cell.X, CellY: seg.Cell.Y,
			FromLat: seg.From.Lat, FromLon: seg.From.Lon,
			ToLat: seg.To.Lat, ToLon: seg.To.Lon,
			EnterM: seg.EnterM, ExitM: seg.ExitM,
			Channels: entries,
		})
	}
	resp.TotalM = segs[len(segs)-1].ExitM // at least one waypoint: at least one segment
	p.geoq.segments.Observe(float64(len(segs)))
	if answered == 0 {
		p.geoq.routeEmpty.Inc()
	} else {
		p.geoq.routeOK.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client went away
}

// ownGrid is a server's view: its serving snapshot, loaded once per
// query, for every cell.
func ownGrid(snap *geoindex.Snapshot) GridView {
	return func(geoindex.Cell) (*geoindex.Snapshot, error) { return snap, nil }
}

func (s *Server) handleAvailability(w http.ResponseWriter, r *http.Request) {
	snap := s.geoidx.Snapshot()
	s.places.Availability(w, r, snap.CellDeg, ownGrid(snap))
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	snap := s.geoidx.Snapshot()
	s.places.Route(w, r, snap.CellDeg, ownGrid(snap))
}
